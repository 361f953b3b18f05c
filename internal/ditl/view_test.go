package ditl

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
)

// collectAS snapshots one AS (the view's scratch spec is only valid
// during the callback, so tests copy what they compare).
type asSnapshot struct {
	ASN          uint32
	V4Prefixes   []netip.Prefix
	V6Prefixes   []netip.Prefix
	DSAV         bool
	OSAV         bool
	FilterBogons bool
	IDS          bool
	Middlebox    bool
	Countries    []string
	Resolvers    []ResolverSpec
	DeadTargets  []netip.Addr
}

func snapshot(as *ASSpec) asSnapshot {
	s := asSnapshot{
		ASN:          uint32(as.ASN),
		V4Prefixes:   append([]netip.Prefix(nil), as.V4Prefixes...),
		V6Prefixes:   append([]netip.Prefix(nil), as.V6Prefixes...),
		DSAV:         as.DSAV,
		OSAV:         as.OSAV,
		FilterBogons: as.FilterBogons,
		IDS:          as.IDS,
		Middlebox:    as.Middlebox,
		Countries:    append([]string(nil), as.Countries...),
		DeadTargets:  append([]netip.Addr(nil), as.DeadTargets...),
	}
	for k := 0; k < as.NumResolvers(); k++ {
		s.Resolvers = append(s.Resolvers, as.Resolver(k))
	}
	return s
}

// TestViewMatchesGenerateAcrossShards pins the tentpole guarantee:
// for K=1, 2, 8 shard slices, the streaming view synthesizes
// byte-identical ASSpecs/ResolverSpecs to the eagerly generated
// population — same draw stream, same specs, any slice.
func TestViewMatchesGenerateAcrossShards(t *testing.T) {
	params := Params{Seed: 7, ASes: 40}
	pop := Generate(params)
	view := NewView(params)

	if got, want := view.NumASes(), pop.NumASes(); got != want {
		t.Fatalf("view has %d ASes, want %d", got, want)
	}
	for _, k := range []int{1, 2, 8} {
		for shard, indices := range PartitionIndices(pop.NumASes(), k) {
			want := make(map[int]asSnapshot)
			pop.EachAS(indices, func(i int, as *ASSpec) { want[i] = snapshot(as) })
			seen := 0
			view.EachAS(indices, func(i int, as *ASSpec) {
				seen++
				if got := snapshot(as); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("K=%d shard %d AS %d differs:\nstreamed: %+v\neager:    %+v",
						k, shard, i, got, want[i])
				}
			})
			if seen != len(indices) {
				t.Fatalf("K=%d shard %d visited %d ASes, want %d", k, shard, seen, len(indices))
			}
			if got, want := view.CandidateCount(indices), pop.CandidateCount(indices); got != want {
				t.Fatalf("K=%d shard %d candidate count %d, want %d", k, shard, got, want)
			}
		}
	}
	if got, want := view.V6AddrCount(), pop.V6AddrCount(); got != want {
		t.Fatalf("view v6 count %d, want %d", got, want)
	}
	if got, want := view.Summarize(), pop.Summarize(); got != want {
		t.Fatalf("view summary %+v, want %+v", got, want)
	}
	if got, want := view.CandidateCount(nil), pop.CandidateCount(nil); got != want {
		t.Fatalf("view total candidates %d, want %d", got, want)
	}
}

// TestViewRevisitAndBackwardJump exercises the stream-restart path: a
// second EachAS over an earlier slice (and out-of-order indices) must
// reproduce the same specs.
func TestViewRevisitAndBackwardJump(t *testing.T) {
	params := Params{Seed: 11, ASes: 20}
	pop := Generate(params)
	view := NewView(params)
	for _, order := range [][]int{{15, 16, 17}, {3, 4, 5}, {12, 2, 7}} {
		view.EachAS(order, func(i int, as *ASSpec) {
			if got, want := snapshot(as), snapshot(pop.ASes[i]); !reflect.DeepEqual(got, want) {
				t.Fatalf("indices %v: AS %d differs", order, i)
			}
		})
	}
}

// TestViewSeeksMatchGenerate drives EachAS with index sets that seek
// every way the checkpoint table can be entered — ascending runs,
// backward jumps, revisits, jumps across and onto checkpoint
// boundaries, nil — over populations of one AS, one stride ± 1 and
// three strides, and checks every visited AS against Generate.
func TestViewSeeksMatchGenerate(t *testing.T) {
	for _, n := range []int{1, viewStride - 1, viewStride + 1, 3 * viewStride} {
		params := Params{Seed: int64(20 + n), ASes: n}
		pop := Generate(params)
		view := NewView(params)
		if got, want := len(view.ckpt), (n+viewStride-1)/viewStride; got != want {
			t.Fatalf("n=%d: %d checkpoints, want %d", n, got, want)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		sets := [][]int{
			nil,
			{n - 1, 0},                   // the far end, then back to the start
			{n - 1, n - 1, n / 2, n / 2}, // revisits
		}
		for k := 0; k < n; k += viewStride {
			// Onto a checkpoint, its predecessor, then past it.
			sets = append(sets, []int{k, max(k-1, 0), min(k+1, n-1)})
		}
		for r := 0; r < 20; r++ {
			var set []int
			for len(set) < 12 {
				switch i := rng.Intn(n); rng.Intn(3) {
				case 0: // an ascending run from a random start
					for ; i < n && len(set) < 12 && rng.Intn(4) != 0; i++ {
						set = append(set, i)
					}
				case 1: // a revisit of the last AS
					if len(set) > 0 {
						set = append(set, set[len(set)-1])
					}
				default: // a jump anywhere, backward or forward
					set = append(set, i)
				}
			}
			sets = append(sets, set)
		}
		for _, set := range sets {
			label := fmt.Sprintf("n=%d indices %v", n, set)
			var visited []int
			view.EachAS(set, func(i int, as *ASSpec) {
				visited = append(visited, i)
				if got, want := snapshot(as), snapshot(pop.ASes[i]); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: AS %d differs:\nstreamed: %+v\neager:    %+v", label, i, got, want)
				}
			})
			want := set
			if set == nil {
				want = make([]int, n)
				for i := range want {
					want[i] = i
				}
			}
			if !reflect.DeepEqual(visited, want) {
				t.Fatalf("%s: visited %v", label, visited)
			}
		}
	}
}

// TestCheckpointStride pins the checkpoint table's bound: the stride
// stays viewStride until the table would pass maxViewCheckpoints, then
// doubles just enough to fit.
func TestCheckpointStride(t *testing.T) {
	for _, n := range []int{0, 1, 250, viewStride * maxViewCheckpoints, viewStride*maxViewCheckpoints + 1, 47_000, 1 << 22} {
		stride := checkpointStride(n)
		if table := (n + stride - 1) / stride; table > maxViewCheckpoints {
			t.Errorf("n=%d: stride %d leaves %d checkpoints", n, stride, table)
		}
		if stride > viewStride && (n+stride/2-1)/(stride/2) <= maxViewCheckpoints {
			t.Errorf("n=%d: stride %d, but %d would fit", n, stride, stride/2)
		}
	}
}

// TestViewPassiveMatchesEager pins that the synthesized 2018 passive
// view is identical over both representations (it walks resolvers in
// population order through the Pop interface).
func TestViewPassiveMatchesEager(t *testing.T) {
	params := Params{Seed: 13, ASes: 30}
	eager := Passive2018(Generate(params), 99)
	streamed := Passive2018(NewView(params), 99)
	if !reflect.DeepEqual(streamed, eager) {
		t.Fatalf("passive views differ: %d vs %d samples", len(streamed), len(eager))
	}
}

// TestPartitionIndicesProperties is the property test for the shard
// partitioner: for a grid of (n, k), the concatenation of the slices
// is exactly 0..n-1 and slice sizes are balanced within one.
func TestPartitionIndicesProperties(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 40, 100, 1023} {
		for _, k := range []int{-1, 0, 1, 2, 3, 5, 8, 16, 101} {
			parts := PartitionIndices(n, k)
			wantK := k
			if wantK < 1 {
				wantK = 1
			}
			if len(parts) != wantK {
				t.Fatalf("n=%d k=%d: got %d slices", n, k, len(parts))
			}
			next, min, max := 0, n, 0
			for _, part := range parts {
				for _, i := range part {
					if i != next {
						t.Fatalf("n=%d k=%d: concatenation yields %d at position %d", n, k, i, next)
					}
					next++
				}
				if len(part) < min {
					min = len(part)
				}
				if len(part) > max {
					max = len(part)
				}
			}
			if next != n {
				t.Fatalf("n=%d k=%d: concatenation covers %d indices, want %d", n, k, next, n)
			}
			if max-min > 1 {
				t.Fatalf("n=%d k=%d: imbalance %d (min %d, max %d)", n, k, max-min, min, max)
			}
		}
	}
}

// BenchmarkViewEachASSharded measures one pass of a 250-AS view split
// into 64 contiguous shards, each visited by its own EachAS call, the
// way the fold engine sweeps a population once per shard.
func BenchmarkViewEachASSharded(b *testing.B) {
	view := NewView(Params{Seed: 42, ASes: 250, DeadTargetMean: 200})
	shards := PartitionIndices(view.NumASes(), 64)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, indices := range shards {
			view.EachAS(indices, func(int, *ASSpec) {})
		}
	}
}
