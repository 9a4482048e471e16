// Package fixture seeds mustcheck cases: discarded results of
// Engine.After, a buffered sink's Flush, and the campaign store's
// Put/PutBatch/Compact/Close, next to the accepted forms (checked, or explicitly
// assigned to blank).
package fixture

import (
	"bufio"

	"optsync/internal/campaign"
	"optsync/internal/harness"
	"optsync/internal/sim"
)

func discardAfter(e *sim.Engine) {
	e.After(1, func() {}) // want mustcheck "result of Engine.After discarded"
}

func checkedAfterOK(e *sim.Engine) {
	if _, err := e.After(1, func() {}); err != nil {
		panic(err)
	}
}

func blankAfterOK(e *sim.Engine) {
	_, _ = e.After(1, func() {})
}

func deferredFlush(w *bufio.Writer) {
	defer w.Flush() // want mustcheck "deferred result of Writer.Flush discarded"
}

func checkedFlushOK(w *bufio.Writer) error {
	return w.Flush()
}

func discardPut(s *campaign.Store, res harness.Result) {
	s.Put("cell-key", res) // want mustcheck "result of Store.Put discarded"
}

func discardCompact(s *campaign.Store) {
	s.Compact() // want mustcheck "result of Store.Compact discarded"
}

func checkedPutOK(s *campaign.Store, res harness.Result) error {
	return s.Put("cell-key", res)
}

func discardPutBatch(s *campaign.Store, res harness.Result) {
	s.PutBatch(1, func(int) (string, harness.Result) { return "cell-key", res }) // want mustcheck "result of Store.PutBatch discarded"
}

func checkedPutBatchOK(s *campaign.Store, res harness.Result) error {
	return s.PutBatch(1, func(int) (string, harness.Result) { return "cell-key", res })
}

func deferredClose(s *campaign.Store) {
	defer s.Close() // want mustcheck "deferred result of Store.Close discarded"
}

func blankCloseOK(s *campaign.Store) {
	_ = s.Close()
}
