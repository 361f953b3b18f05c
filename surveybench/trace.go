package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/ditl"
)

// noShard is the request identifier of a campaign-wide span.
const noShard = -1

// span is one timed call across a layer boundary. Shard is the request
// identifier: the spans of one shard's work share it.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Shard  int     `json:"shard"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// AllocBytes is the process-wide heap allocation during the span,
	// from runtime/metrics. Spans that overlap other goroutines' work
	// (the shards of a parallel stage) include that work's allocations.
	AllocBytes uint64 `json:"alloc_bytes"`

	allocAtStart uint64
}

func (s *span) dur() float64 { return s.End - s.Start }

// tracer records a traced run in memory: wall-clock spans and
// deterministic counters, kept apart so the two cannot be confused. It
// is safe for concurrent use by shard goroutines.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// counters are deterministic: the same seed and configuration give
	// the same values on every run.
	counters map[string]float64
	// times are wall-clock quantities measured inside a span rather
	// than as one.
	times map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: make(map[string]float64), times: make(map[string]float64)}
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes reads the process's cumulative heap allocation. The
// sample slice is shared, so callers hold the tracer's lock.
func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// begin opens a span and returns its ID; parent is -1 for a root.
func (t *tracer) begin(name string, parent, shard int) int {
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent, Shard: shard,
		Start: now, allocAtStart: allocBytes(),
	})
	return id
}

// end closes the span.
func (t *tracer) end(id int) {
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	s.AllocBytes = allocBytes() - s.allocAtStart
}

// count adds v to a deterministic counter.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// maxCount raises a deterministic counter to at least v.
func (t *tracer) maxCount(name string, v float64) {
	t.mu.Lock()
	if v > t.counters[name] {
		t.counters[name] = v
	}
	t.mu.Unlock()
}

// counter reads a deterministic counter.
func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// addTime adds a wall-clock quantity.
func (t *tracer) addTime(name string, seconds float64) {
	t.mu.Lock()
	t.times[name] += seconds
	t.mu.Unlock()
}

// spanTotals sums duration and allocation of the spans named name.
func (t *tracer) spanTotals(name string) (seconds float64, allocBytes uint64) {
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			seconds += s.dur()
			allocBytes += s.AllocBytes
		}
	}
	return seconds, allocBytes
}

// durations lists the durations of the spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover. Children of one span may run in
// parallel, so the covered part is the union of their intervals.
func (t *tracer) selfTimes() map[string]float64 {
	children := make(map[int][][2]float64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Name] += s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, cur := 0.0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// sweepStat counts one kind of population sweep.
type sweepStat struct {
	Calls int64 `json:"calls"`
	ASes  int64 `json:"ases"`
	// SelfS is the time spent inside EachAS outside the caller's
	// callback: the population's own iteration and, for a streaming
	// view, AS synthesis.
	SelfS float64 `json:"self_s"`
}

// popMeter accumulates the sweeps of every meteredPop sharing it.
type popMeter struct {
	mu     sync.Mutex
	sweeps map[string]*sweepStat
}

func newPopMeter() *popMeter { return &popMeter{sweeps: make(map[string]*sweepStat)} }

func (m *popMeter) record(label string, ases int64, self time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.sweeps[label]
	if st == nil {
		st = &sweepStat{}
		m.sweeps[label] = st
	}
	st.Calls++
	st.ASes += ases
	st.SelfS += self.Seconds()
}

// total sums every label's sweeps.
func (m *popMeter) total() sweepStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	var t sweepStat
	for _, st := range m.sweeps {
		t.Calls += st.Calls
		t.ASes += st.ASes
		t.SelfS += st.SelfS
	}
	return t
}

// meteredPop decorates a population so every EachAS sweep is counted
// and timed under a label naming its caller (hit list, geo database,
// admission, world build, fold target stream, ...). Repeated sweeps of
// one population are then visible in the trace.
type meteredPop struct {
	ditl.Pop
	label string
	m     *popMeter
}

// EachAS implements ditl.Pop.
func (p meteredPop) EachAS(indices []int, fn func(i int, as *ditl.ASSpec)) {
	var n int64
	var inFn time.Duration
	start := time.Now()
	p.Pop.EachAS(indices, func(i int, as *ditl.ASSpec) {
		n++
		t := time.Now()
		fn(i, as)
		inFn += time.Since(t)
	})
	p.m.record(p.label, n, time.Since(start)-inFn)
}
