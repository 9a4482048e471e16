package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
)

// CanonicalSpec returns the spec in the form under which two specs
// describe the same computation: defaults applied (so an explicit value
// and the default it resolves to hash identically) and presentation-only
// fields cleared. Name labels output rows, KeepSeries only controls how
// much of the result is retained, and Shards selects the execution
// strategy (the sharded engine is bit-identical to serial at any shard
// count) — none changes a single simulated event, so none participates
// in content addressing.
func CanonicalSpec(spec Spec) Spec {
	spec = spec.withDefaults()
	spec.Name = ""
	spec.KeepSeries = false
	spec.Shards = 0
	return spec
}

// SpecKey returns the stable content address of a spec: the hex SHA-256
// of the canonical spec's JSON encoding. encoding/json sorts map keys
// (StartAt, ClockOffset) and emits shortest round-trip floats, so the
// key is deterministic across processes and platforms. Adding a field to
// Spec changes every key, which is exactly right: old cached results
// were computed without the field and cannot answer for specs that have
// it.
func SpecKey(spec Spec) (string, error) {
	buf := keyBufs.Get().(*bytes.Buffer)
	defer keyBufs.Put(buf)
	buf.Reset()
	// Encode writes what Marshal would return plus a newline, into a
	// buffer that is reused rather than copied out.
	if err := json.NewEncoder(buf).Encode(CanonicalSpec(spec)); err != nil {
		return "", fmt.Errorf("harness: canonicalizing spec %q: %w", spec.Name, err)
	}
	sum := sha256.Sum256(bytes.TrimSuffix(buf.Bytes(), []byte("\n")))
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:]), nil
}

// keyBufs recycles SpecKey's encoding buffers: a fabric coordinator keys
// every reported result, a campaign every cell it expands.
var keyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}
