package probe

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
)

// --- streaming quantiles (P-squared) ---

// p2 is the P² streaming quantile estimator (Jain & Chlamtac 1985): five
// markers track the running quantile in O(1) memory with parabolic
// interpolation. It is deterministic in the observation sequence, so
// replaying a trace reproduces the estimate bit-for-bit.
type p2 struct {
	p    float64
	n    int
	q    [5]float64 // marker heights
	pos  [5]float64 // marker positions (1-based)
	npos [5]float64 // desired positions
	dn   [5]float64 // desired-position increments
}

func newP2(p float64) p2 {
	return p2{p: p, dn: [5]float64{0, p / 2, p, (1 + p) / 2, 1}}
}

func (s *p2) observe(x float64) {
	if s.n < 5 {
		s.q[s.n] = x
		s.n++
		if s.n == 5 {
			q := s.q[:]
			sort.Float64s(q)
			s.pos = [5]float64{1, 2, 3, 4, 5}
			s.npos = [5]float64{1, 1 + 2*s.p, 1 + 4*s.p, 3 + 2*s.p, 5}
		}
		return
	}
	var k int
	switch {
	case x < s.q[0]:
		s.q[0] = x
		k = 0
	case x < s.q[1]:
		k = 0
	case x < s.q[2]:
		k = 1
	case x < s.q[3]:
		k = 2
	case x <= s.q[4]:
		k = 3
	default:
		s.q[4] = x
		k = 3
	}
	s.n++
	for i := k + 1; i < 5; i++ {
		s.pos[i]++
	}
	for i := range s.npos {
		s.npos[i] += s.dn[i]
	}
	for i := 1; i <= 3; i++ {
		d := s.npos[i] - s.pos[i]
		if (d >= 1 && s.pos[i+1]-s.pos[i] > 1) || (d <= -1 && s.pos[i-1]-s.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			if qp := s.parabolic(i, sign); s.q[i-1] < qp && qp < s.q[i+1] {
				s.q[i] = qp
			} else {
				s.q[i] = s.linear(i, sign)
			}
			s.pos[i] += sign
		}
	}
}

func (s *p2) parabolic(i int, d float64) float64 {
	return s.q[i] + d/(s.pos[i+1]-s.pos[i-1])*
		((s.pos[i]-s.pos[i-1]+d)*(s.q[i+1]-s.q[i])/(s.pos[i+1]-s.pos[i])+
			(s.pos[i+1]-s.pos[i]-d)*(s.q[i]-s.q[i-1])/(s.pos[i]-s.pos[i-1]))
}

func (s *p2) linear(i int, d float64) float64 {
	return s.q[i] + d*(s.q[int(float64(i)+d)]-s.q[i])/(s.pos[int(float64(i)+d)]-s.pos[i])
}

// value returns the current estimate. With fewer than five observations
// it falls back to the nearest-rank quantile of what it has.
func (s *p2) value() float64 {
	if s.n == 0 {
		return 0
	}
	if s.n < 5 {
		tmp := make([]float64, s.n)
		copy(tmp, s.q[:s.n])
		sort.Float64s(tmp)
		idx := int(math.Ceil(s.p*float64(s.n))) - 1
		if idx < 0 {
			idx = 0
		}
		return tmp[idx]
	}
	return s.q[2]
}

// --- skew ---

// skewHistBuckets is the fixed size of the exponential skew histogram.
const skewHistBuckets = 64

// SkewStats folds TypeSkewSample events into O(1)-memory skew statistics:
// count/min/max/mean, P² estimates of the 50th/95th/99th percentiles, and
// a base-2 exponential histogram. It replaces retaining the full skew
// series when only its shape is wanted — the bounded-memory per-cell
// collector of million-cell campaigns.
type SkewStats struct {
	count         uint64
	max, min, sum float64
	q50, q95, q99 p2
	// hist bucket 0 counts non-positive samples; bucket i in [1,63]
	// counts samples in [2^(i-42), 2^(i-41)).
	hist [skewHistBuckets]uint64
}

// NewSkewStats returns an empty skew collector.
func NewSkewStats() *SkewStats {
	return &SkewStats{
		min: math.Inf(1),
		q50: newP2(0.50), q95: newP2(0.95), q99: newP2(0.99),
	}
}

// OnEvent implements Probe.
func (s *SkewStats) OnEvent(ev Event) {
	if ev.Type == TypeSkewSample {
		s.observe(ev.Value)
	}
}

// Fold implements Folder.
//
//syncsim:hotpath
func (s *SkewStats) Fold(b *Batch) {
	if b.Type != TypeSkewSample {
		return
	}
	for _, v := range b.Value {
		s.observe(v)
	}
}

// observe folds one skew sample.
//
//syncsim:hotpath
func (s *SkewStats) observe(v float64) {
	s.count++
	s.sum += v
	if v > s.max {
		s.max = v
	}
	if v < s.min {
		s.min = v
	}
	s.q50.observe(v)
	s.q95.observe(v)
	s.q99.observe(v)
	s.hist[histBucket(v)]++
}

func histBucket(v float64) int {
	if v <= 0 {
		return 0
	}
	_, exp := math.Frexp(v)
	b := exp + 41
	if b < 1 {
		b = 1
	}
	if b >= skewHistBuckets {
		b = skewHistBuckets - 1
	}
	return b
}

// Count returns the number of samples observed.
func (s *SkewStats) Count() int { return int(s.count) }

// Max returns the maximum observed skew (0 with no samples), the fold the
// harness reports as Result.MaxSkew.
func (s *SkewStats) Max() float64 { return s.max }

// Min returns the minimum observed skew (0 with no samples).
func (s *SkewStats) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Mean returns the mean observed skew (0 with no samples).
func (s *SkewStats) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// P50, P95, and P99 return the streaming percentile estimates.
func (s *SkewStats) P50() float64 { return s.q50.value() }
func (s *SkewStats) P95() float64 { return s.q95.value() }
func (s *SkewStats) P99() float64 { return s.q99.value() }

// Histogram returns the sample counts per bucket: bucket 0 holds
// non-positive samples, bucket i in [1,63] holds samples in
// [2^(i-42), 2^(i-41)) seconds (bucket 42 covers [1s, 2s)).
func (s *SkewStats) Histogram() [skewHistBuckets]uint64 { return s.hist }

// Name implements Collector.
func (s *SkewStats) Name() string { return "skew" }

// Types implements Collector.
func (s *SkewStats) Types() []Type { return []Type{TypeSkewSample} }

// Aggregate implements Collector.
func (s *SkewStats) Aggregate() []Stat {
	return []Stat{
		{"samples", float64(s.count)},
		{"min_s", s.Min()},
		{"max_s", s.Max()},
		{"mean_s", s.Mean()},
		{"p50_s", s.P50()},
		{"p95_s", s.P95()},
		{"p99_s", s.P99()},
	}
}

// --- acceptance spread ---

type spreadRound struct {
	first, last float64
	count       int
}

// SpreadStats folds TypePulse events into per-round acceptance spreads
// (latest minus earliest acceptance of each resynchronization round).
// Memory is O(rounds). Pulses from faulty nodes are the emitter's to
// filter; the harness measures spread over correct pulses only, this
// collector over everything it is fed.
type SpreadStats struct {
	rounds map[int32]*spreadRound
}

// NewSpreadStats returns an empty spread collector.
func NewSpreadStats() *SpreadStats {
	return &SpreadStats{rounds: make(map[int32]*spreadRound)}
}

// OnEvent implements Probe.
func (s *SpreadStats) OnEvent(ev Event) {
	if ev.Type != TypePulse {
		return
	}
	r := s.rounds[ev.Round]
	if r == nil {
		r = &spreadRound{first: ev.T, last: ev.T}
		s.rounds[ev.Round] = r
	}
	if ev.T < r.first {
		r.first = ev.T
	}
	if ev.T > r.last {
		r.last = ev.T
	}
	r.count++
}

// Fold implements Folder.
func (s *SpreadStats) Fold(b *Batch) {
	for i, t := range b.T {
		s.OnEvent(Event{Type: b.Type, Round: b.Round[i], T: t})
	}
}

// Rounds returns the number of distinct rounds observed.
func (s *SpreadStats) Rounds() int { return len(s.rounds) }

// CompleteRounds counts rounds with exactly want acceptances.
func (s *SpreadStats) CompleteRounds(want int) int {
	n := 0
	for _, r := range s.rounds {
		if r.count == want {
			n++
		}
	}
	return n
}

// MaxSpread returns the maximum spread over rounds with exactly want
// acceptances (all rounds when want <= 0).
func (s *SpreadStats) MaxSpread(want int) float64 {
	max := 0.0
	for _, r := range s.rounds {
		if want > 0 && r.count != want {
			continue
		}
		if sp := r.last - r.first; sp > max {
			max = sp
		}
	}
	return max
}

// Name implements Collector.
func (s *SpreadStats) Name() string { return "spread" }

// Types implements Collector.
func (s *SpreadStats) Types() []Type { return []Type{TypePulse} }

// Aggregate implements Collector.
func (s *SpreadStats) Aggregate() []Stat {
	// In round order, not map order: float addition is not associative.
	var sum float64
	for _, k := range sortedKeys(s.rounds) {
		r := s.rounds[k]
		sum += r.last - r.first
	}
	mean := 0.0
	if len(s.rounds) > 0 {
		mean = sum / float64(len(s.rounds))
	}
	return []Stat{
		{"rounds", float64(len(s.rounds))},
		{"max_spread_s", s.MaxSpread(0)},
		{"mean_spread_s", mean},
	}
}

// --- message complexity ---

// MsgStats folds the five message event types into traffic counters and a
// per-round send histogram (keyed by the protocol round the envelope
// carries). Memory is O(rounds).
type MsgStats struct {
	sent, delivered                   uint64
	dropPolicy, dropOffline, dropLink uint64
	perRound                          map[int32]uint64
}

// NewMsgStats returns an empty traffic collector.
func NewMsgStats() *MsgStats {
	return &MsgStats{perRound: make(map[int32]uint64)}
}

// OnEvent implements Probe.
func (s *MsgStats) OnEvent(ev Event) { s.add(ev.Type, ev.Round, 1) }

// Fold implements Folder: one counter update per batch, or for sends one
// map update per run of equal rounds (a broadcast is one run).
//
//syncsim:hotpath
func (s *MsgStats) Fold(b *Batch) {
	if b.Type != TypeMessageSent {
		s.add(b.Type, 0, uint64(b.Len()))
		return
	}
	for i := 0; i < len(b.Round); {
		j := i + 1
		for j < len(b.Round) && b.Round[j] == b.Round[i] {
			j++
		}
		s.add(TypeMessageSent, b.Round[i], uint64(j-i))
		i = j
	}
}

// add counts n events of type t; round matters to sends only.
//
//syncsim:hotpath
func (s *MsgStats) add(t Type, round int32, n uint64) {
	switch t {
	case TypeMessageSent:
		s.sent += n
		s.perRound[round] += n
	case TypeMessageDelivered:
		s.delivered += n
	case TypeMessageDropPolicy:
		s.dropPolicy += n
	case TypeMessageDropOffline:
		s.dropOffline += n
	case TypeMessageDropLink:
		s.dropLink += n
	}
}

// Sent returns the number of messages put on a wire.
func (s *MsgStats) Sent() uint64 { return s.sent }

// Delivered returns the number of handler deliveries.
func (s *MsgStats) Delivered() uint64 { return s.delivered }

// PerRound returns the send count per protocol round, sorted by round.
func (s *MsgStats) PerRound() []Stat {
	rounds := sortedKeys(s.perRound)
	out := make([]Stat, len(rounds))
	for i, r := range rounds {
		out[i] = Stat{Key: "round_" + strconv.Itoa(int(r)), Value: float64(s.perRound[r])}
	}
	return out
}

// Name implements Collector.
func (s *MsgStats) Name() string { return "messages" }

// Types implements Collector.
func (s *MsgStats) Types() []Type { return MessageTypes() }

// Aggregate implements Collector.
func (s *MsgStats) Aggregate() []Stat {
	perRound := 0.0
	if len(s.perRound) > 0 {
		perRound = float64(s.sent) / float64(len(s.perRound))
	}
	return []Stat{
		{"sent", float64(s.sent)},
		{"delivered", float64(s.delivered)},
		{"drop_policy", float64(s.dropPolicy)},
		{"drop_offline", float64(s.dropOffline)},
		{"drop_link", float64(s.dropLink)},
		{"rounds", float64(len(s.perRound))},
		{"sent_per_round", perRound},
	}
}

// --- reintegration windows ---

// ReintegrationWindows tracks, for every node booted after time zero (a
// late joiner), the window from its boot to its first accepted pulse —
// the paper's integration property, measured streaming.
type ReintegrationWindows struct {
	bootAt     map[int32]float64
	firstPulse map[int32]float64
}

// NewReintegrationWindows returns an empty reintegration tracker.
func NewReintegrationWindows() *ReintegrationWindows {
	return &ReintegrationWindows{
		bootAt:     make(map[int32]float64),
		firstPulse: make(map[int32]float64),
	}
}

// OnEvent implements Probe.
func (s *ReintegrationWindows) OnEvent(ev Event) {
	switch ev.Type {
	case TypeNodeBoot:
		s.bootAt[ev.From] = ev.T
	case TypePulse:
		if _, seen := s.firstPulse[ev.From]; !seen {
			s.firstPulse[ev.From] = ev.T
		}
	}
}

// Fold implements Folder: a node's last boot and its first pulse are each
// a function of one type's sequence.
func (s *ReintegrationWindows) Fold(b *Batch) {
	for i, t := range b.T {
		s.OnEvent(Event{Type: b.Type, From: b.From[i], T: t})
	}
}

// Windows returns (node, window) pairs for every late joiner that pulsed,
// sorted by node id.
func (s *ReintegrationWindows) Windows() []Stat {
	ids := make([]int32, 0, len(s.bootAt))
	for id, at := range s.bootAt {
		if at > 0 {
			if _, ok := s.firstPulse[id]; ok {
				ids = append(ids, id)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]Stat, len(ids))
	for i, id := range ids {
		out[i] = Stat{Key: "node_" + strconv.Itoa(int(id)), Value: s.firstPulse[id] - s.bootAt[id]}
	}
	return out
}

// Name implements Collector.
func (s *ReintegrationWindows) Name() string { return "reintegration" }

// Types implements Collector.
func (s *ReintegrationWindows) Types() []Type { return []Type{TypeNodeBoot, TypePulse} }

// Aggregate implements Collector.
func (s *ReintegrationWindows) Aggregate() []Stat {
	windows := s.Windows()
	joiners := 0
	for _, at := range s.bootAt {
		if at > 0 {
			joiners++
		}
	}
	var max, sum float64
	for _, w := range windows {
		sum += w.Value
		if w.Value > max {
			max = w.Value
		}
	}
	mean := 0.0
	if len(windows) > 0 {
		mean = sum / float64(len(windows))
	}
	return []Stat{
		{"joiners", float64(joiners)},
		{"synced", float64(len(windows))},
		{"max_window_s", max},
		{"mean_window_s", mean},
	}
}

// --- series (compatibility collector) ---

// Sample is one skew observation of a retained series.
type Sample struct {
	T    float64 // real time
	Skew float64 // max - min logical clock over sampled nodes
}

// Series retains the full skew time series — the collector behind
// Spec.KeepSeries. Unlike the other collectors its memory is O(samples);
// prefer SkewStats when only the distribution is wanted.
type Series struct {
	Samples []Sample
}

// NewSeries returns an empty series collector.
func NewSeries() *Series { return &Series{} }

// OnEvent implements Probe.
func (s *Series) OnEvent(ev Event) {
	if ev.Type != TypeSkewSample {
		return
	}
	s.Samples = append(s.Samples, Sample{T: ev.T, Skew: ev.Value})
}

// Fold implements Folder.
func (s *Series) Fold(b *Batch) {
	for i, t := range b.T {
		s.OnEvent(Event{Type: b.Type, T: t, Value: b.Value[i]})
	}
}

// Name implements Collector.
func (s *Series) Name() string { return "series" }

// Types implements Collector.
func (s *Series) Types() []Type { return []Type{TypeSkewSample} }

// Aggregate implements Collector.
func (s *Series) Aggregate() []Stat {
	last := 0.0
	if n := len(s.Samples); n > 0 {
		last = s.Samples[n-1].Skew
	}
	return []Stat{
		{"samples", float64(len(s.Samples))},
		{"last_skew_s", last},
	}
}

// sortedKeys returns m's keys ascending: how aggregates walk a map.
func sortedKeys[V any](m map[int32]V) []int32 {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// --- cross-run serialization ---

type synchronized struct {
	mu sync.Mutex
	p  Probe
}

// Synchronized wraps p so that OnEvent calls are serialized by a mutex —
// required when one probe observes events from runs executing
// concurrently (RunBatch with several workers). Events from different
// runs interleave arbitrarily; per-run isolation needs per-run probes.
func Synchronized(p Probe) Probe {
	if p == nil {
		panic("probe: Synchronized(nil)")
	}
	return &synchronized{p: p}
}

// OnEvent implements Probe.
func (s *synchronized) OnEvent(ev Event) {
	s.mu.Lock()
	s.p.OnEvent(ev)
	s.mu.Unlock()
}
