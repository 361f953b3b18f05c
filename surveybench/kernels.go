package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"time"

	doors "repro"
	"repro/internal/authserver"
	"repro/internal/detrand"
	"repro/internal/ditl"
	"repro/internal/dnswire"
	"repro/internal/eventq"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/scanner"
	"repro/internal/world"
)

// kernelASes is how many of the population's first ASes the layer
// kernels draw their inputs from.
const kernelASes = 16

// maxKernelInputs caps the probe inputs the kernels cycle through.
const maxKernelInputs = 2048

// kernelInputs are probe-shaped inputs drawn from the workload's own
// population: admitted targets, a spoofed source for each, and the
// probe query the scanner would send.
type kernelInputs struct {
	srcs, dsts []netip.Addr
	msgs       []*dnswire.Message
	packed     [][]byte // packed probe queries
	raws       [][]byte // the probes as IP packets
	reg        *routing.Registry
	zone       *authserver.Zone
	seed       uint64
}

func newKernelInputs(pop ditl.Pop, cfg doors.SurveyConfig) (*kernelInputs, error) {
	opts := cfg.World
	reg, err := world.BuildRegistry(pop, opts)
	if err != nil {
		return nil, err
	}
	indices := make([]int, min(kernelASes, pop.NumASes()))
	for i := range indices {
		indices[i] = i
	}
	w, err := world.BuildWith(pop, reg, opts, indices)
	if err != nil {
		return nil, err
	}
	pl := scanner.NewPlanner(reg, cfg.Scanner)
	admit(pl, pop, indices, nil)
	in := &kernelInputs{reg: reg, zone: w.MainZone, seed: uint64(cfg.Scanner.Seed)}
	for i, t := range pl.Targets {
		if len(in.dsts) == maxKernelInputs {
			break
		}
		srcs := pl.SourcesFor(t)
		if len(srcs) == 0 {
			continue
		}
		src := srcs[i%len(srcs)]
		name := scanner.EncodeQName(time.Duration(i)*time.Millisecond, src, t.Addr, t.ASN, pl.Cfg.Keyword, scanner.ProbeMain)
		q := dnswire.NewQuery(uint16(i), name, dnswire.TypeA)
		b, err := q.Pack()
		if err != nil {
			return nil, err
		}
		raw, err := packet.BuildUDP(src, t.Addr, uint16(1024+i), 53, 64, b)
		if err != nil {
			return nil, err
		}
		in.srcs = append(in.srcs, src)
		in.dsts = append(in.dsts, t.Addr)
		in.msgs = append(in.msgs, q)
		in.packed = append(in.packed, b)
		in.raws = append(in.raws, raw)
	}
	if len(in.dsts) == 0 {
		return nil, fmt.Errorf("kernels: the first %d ASes admit no probe targets", len(indices))
	}
	return in, nil
}

// kernelResult is one kernel's per-operation cost.
type kernelResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	Ops         int     `json:"ops"`
}

// kernelTime is how long each kernel is timed.
const kernelTime = 150 * time.Millisecond

// Typed sinks keep kernel results alive so the compiler cannot drop
// the calls; an interface sink would add a boxing allocation per op.
var (
	sinkBytes []byte
	sinkPkt   *packet.Packet
	sinkMsg   *dnswire.Message
	sinkAS    *routing.AS
	sinkInt   int64
)

// measureKernel runs op over the inputs, cycling, for kernelTime after
// one warm-up pass, and reports its mean per-operation time and heap
// allocation (runtime.ReadMemStats, exact at both ends).
func measureKernel(n int, op func(i int) error) (kernelResult, error) {
	for i := 0; i < n; i++ {
		if err := op(i); err != nil {
			return kernelResult{}, err
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops := 0
	start := time.Now()
	for time.Since(start) < kernelTime {
		for j := 0; j < 256; j++ {
			if err := op(ops % n); err != nil {
				return kernelResult{}, err
			}
			ops++
		}
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	return kernelResult{
		NsPerOp:     float64(el.Nanoseconds()) / float64(ops),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops),
		Ops:         ops,
	}, nil
}

// runKernels times each layer kernel on the inputs.
func runKernels(in *kernelInputs) (map[string]kernelResult, error) {
	n := len(in.dsts)
	q := eventq.New()
	noop := func(time.Duration) {}
	kernels := []struct {
		name string
		op   func(i int) error
	}{
		{"packet.build_udp", func(i int) (err error) {
			sinkBytes, err = packet.BuildUDP(in.srcs[i], in.dsts[i], uint16(1024+i), 53, 64, in.packed[i])
			return err
		}},
		{"packet.decode", func(i int) (err error) {
			sinkPkt, err = packet.Decode(in.raws[i])
			return err
		}},
		{"dnswire.pack", func(i int) (err error) {
			sinkBytes, err = in.msgs[i].Pack()
			return err
		}},
		{"dnswire.unpack", func(i int) (err error) {
			sinkMsg, err = dnswire.Unpack(in.packed[i])
			return err
		}},
		{"authserver.respond", func(i int) error {
			sinkMsg = in.zone.Respond(in.msgs[i], true)
			return nil
		}},
		{"routing.lookup", func(i int) error {
			sinkAS = in.reg.OriginOf(in.dsts[i])
			return nil
		}},
		{"eventq.op", func(i int) error {
			q.At(q.Now()+time.Duration(i%64)*time.Microsecond, noop)
			q.Step()
			return nil
		}},
		{"detrand.rand", func(i int) error {
			hi, lo := detrand.AddrWords(in.dsts[i])
			sinkInt = detrand.Rand(in.seed, hi, lo).Int63()
			return nil
		}},
	}
	out := make(map[string]kernelResult, len(kernels))
	for _, k := range kernels {
		r, err := measureKernel(n, k.op)
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", k.name, err)
		}
		out[k.name] = r
	}
	sinkBytes, sinkPkt, sinkMsg, sinkAS = nil, nil, nil, nil
	return out, nil
}
