package optsync

import (
	"io"

	"optsync/internal/probe"
	"optsync/internal/tracelake"
)

// The probe vocabulary, re-exported as aliases so probes and collectors
// flow between this package and extension code without conversion.
type (
	// Event is one typed observation of a run: a message sent, delivered,
	// or dropped; a pulse; a resync; a node boot; a partition cut or
	// heal; a skew sample. Events are plain values — fixed size, no
	// pointers — and emitting them allocates nothing.
	Event = probe.Event
	// EventType discriminates events (EventMessageSent, EventPulse, ...).
	EventType = probe.Type
	// Probe consumes events inline at the emission site. A probe runs on
	// the simulation goroutine of one run; in a batch, WithProbe wraps it
	// so calls from concurrent runs are serialized.
	Probe = probe.Probe
	// ProbeFunc adapts a function to the Probe interface.
	ProbeFunc = probe.Func
	// Collector is a probe that folds its subscription into a named,
	// bounded-memory aggregate, deterministic in the event sequence.
	Collector = probe.Collector
	// Stat is one named aggregate value of a Collector.
	Stat = probe.Stat
	// SkewStats / SpreadStats / MsgStats / ReintegrationWindows / Series
	// are the built-in streaming collectors.
	SkewStats            = probe.SkewStats
	SpreadStats          = probe.SpreadStats
	MsgStats             = probe.MsgStats
	ReintegrationWindows = probe.ReintegrationWindows
	Series               = probe.Series
	// TraceWriter records the event stream it observes as JSON Lines (a
	// Probe).
	TraceWriter = probe.Writer
)

// Event types.
const (
	EventMessageSent        = probe.TypeMessageSent
	EventMessageDelivered   = probe.TypeMessageDelivered
	EventMessageDropPolicy  = probe.TypeMessageDropPolicy
	EventMessageDropOffline = probe.TypeMessageDropOffline
	EventMessageDropLink    = probe.TypeMessageDropLink
	EventPulse              = probe.TypePulse
	EventResync             = probe.TypeResync
	EventNodeBoot           = probe.TypeNodeBoot
	EventPartitionCut       = probe.TypePartitionCut
	EventPartitionHeal      = probe.TypePartitionHeal
	EventSkewSample         = probe.TypeSkewSample
)

// MessageEventTypes lists the five per-message event types — the hot-path
// subscription for traffic probes.
func MessageEventTypes() []EventType { return probe.MessageTypes() }

// AllEventTypes lists every event type.
func AllEventTypes() []EventType { return probe.AllTypes() }

// EventTypeByName resolves an event type from its wire name ("pulse",
// "skew_sample", ...) — the names JSONL traces and query flags use.
func EventTypeByName(name string) (EventType, bool) { return probe.TypeByName(name) }

// LakeMagic is the 8-byte header identifying a columnar trace lake.
// Format sniffers compare a stream's leading bytes against it to route
// lakes to OpenLake and row traces to ReplayTrace.
var LakeMagic = probe.LakeMagic

// NewSkewCollector returns a streaming skew collector: count/min/max/mean,
// P² percentile estimates (p50/p95/p99), and an exponential histogram, in
// O(1) memory. Subscribe with WithCollector.
func NewSkewCollector() *SkewStats { return probe.NewSkewStats() }

// NewSpreadCollector returns a per-round acceptance-spread collector.
func NewSpreadCollector() *SpreadStats { return probe.NewSpreadStats() }

// NewMsgCollector returns a message-complexity collector: traffic
// counters plus per-protocol-round send counts.
func NewMsgCollector() *MsgStats { return probe.NewMsgStats() }

// NewReintegrationCollector returns a collector tracking each late
// joiner's boot-to-first-pulse window.
func NewReintegrationCollector() *ReintegrationWindows { return probe.NewReintegrationWindows() }

// NewSeriesCollector returns the full-series collector behind
// WithKeepSeries — O(samples) memory, for when the whole trace matters.
func NewSeriesCollector() *Series { return probe.NewSeries() }

// NewTraceWriter returns a JSONL trace writer on w: one self-describing
// JSON object per event, float64 values round-tripped exactly, so replay
// is bit-faithful. Install it with WithTrace; the run entry points flush
// it and surface its I/O errors. For anything a machine reads back, record
// a lake instead (NewLakeWriter).
func NewTraceWriter(w io.Writer) *TraceWriter { return probe.NewWriter(w) }

// ErrBinaryTraceRemoved is returned for the 40-byte binary row format
// that PR 22 removed: by ReplayTrace on a stream that opens with its
// magic, and by the CLI for a .bin / .trace output path.
var ErrBinaryTraceRemoved = probe.ErrBinaryRemoved

// ReplayTrace feeds a recorded JSONL trace back through probes in
// recorded order and returns the number of events replayed. Collectors
// fed a replayed trace reproduce the aggregates of the original run
// exactly — `syncsim trace` is this function with the built-in
// collectors.
func ReplayTrace(r io.Reader, probes ...Probe) (int, error) {
	return probe.Replay(r, probes...)
}

// SynchronizedProbe wraps p so OnEvent calls are serialized by a mutex —
// what WithProbe does automatically when a batch shares one probe across
// concurrent runs. Use it directly when attaching a shared probe through
// lower-level APIs.
func SynchronizedProbe(p Probe) Probe { return probe.Synchronized(p) }

// The trace-lake vocabulary, re-exported like the probe types above. A
// lake is the columnar, indexed trace container: events stored as
// per-type column blocks with a footer index, so queries prune whole
// blocks on type / time / node / round bounds instead of decoding the
// stream front to back.
type (
	// Lake is an open container. Scan (merged event order), ScanUnordered
	// (block order, cheapest), ScanRows, Stats and Replay are its methods;
	// Close releases the file mapping, if any. Every read sorts the
	// blocks on the footer alone — pruned, answered from the footer, or
	// decoded — and decodes inline at one worker, on a pool otherwise.
	// Stats is Replay with nothing subscribed: it decodes only the blocks
	// the query cuts.
	Lake = tracelake.Lake
	// LakeQuery selects events. The zero value selects everything; chain
	// WithTypes / WithNode / WithTimeRange / WithRounds to restrict it
	// and WithWorkers to size the decode pool (0 = one per core; output
	// is identical at every worker count).
	LakeQuery = tracelake.Query
	// LakeScanStats reports what a scan touched — pruned, covered
	// (answered from the footer without decoding, Stats only), and
	// scanned blocks, decoded vs matched rows.
	LakeScanStats = tracelake.ScanStats
	// LakeRows is one decoded column block in struct-of-arrays form, as
	// seen by ScanRows callbacks.
	LakeRows = tracelake.Rows
	// LakeWriter streams events into a lake container (a Probe; install
	// with WithLakeTrace).
	LakeWriter = tracelake.Writer
)

// NewLakeWriter returns a lake writer emitting to w. Install it with
// WithLakeTrace to record a run, or feed it events directly to convert
// an existing trace (`syncsim trace -out x.lake` does). The container is
// complete only after a nil Flush. Full blocks are encoded and written
// to w in order by a goroutine of the writer's own — one Write of about
// 55 KB per block, so wrap a file in a bufio.Writer if that matters — and
// w's first error comes back from Flush; the bytes written are the same
// at any GOMAXPROCS.
func NewLakeWriter(w io.Writer) *LakeWriter { return tracelake.NewWriter(w) }

// OpenLake opens a lake file for querying. On unix the container is
// memory-mapped — opening costs O(footer) regardless of lake size and
// blocks decode zero-copy from the mapped pages; where mapping is
// unavailable or fails, the file is read into memory. Either way the
// bytes are opened as OpenLakeBytes opens them: the footer index is
// verified up front, and block payloads are checksummed lazily, once
// each, when a query first admits them.
func OpenLake(path string) (*Lake, error) { return tracelake.Open(path) }

// OpenLakeBytes opens an in-memory lake image without copying it. The
// caller must not mutate data while the lake is in use.
func OpenLakeBytes(data []byte) (*Lake, error) { return tracelake.OpenBytes(data) }

// QueryLake is the one-shot form of OpenLake + Scan + Close: it streams
// every event q admits through fn in recorded order and reports what the
// scan touched.
func QueryLake(path string, q LakeQuery, fn func(Event) error) (LakeScanStats, error) {
	l, err := OpenLake(path)
	if err != nil {
		return LakeScanStats{}, err
	}
	defer l.Close()
	return l.Scan(q, fn)
}

// ReplayLake feeds the events q admits back through probes, in recorded
// order, and returns the number of events replayed — ReplayTrace for
// lakes, plus the query. Collectors fed a match-all replay reproduce the
// recording run's aggregates exactly.
func ReplayLake(path string, q LakeQuery, probes ...Probe) (int, error) {
	l, err := OpenLake(path)
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Replay(q, probes...)
}
