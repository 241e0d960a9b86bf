package wcet

// Equivalence of the worst-branch simulation against its earlier form.
// simulateNode and simulateHierNode now simulate each branch arm once (Then
// on a fork of the state, Else on the cache itself, the fork's state
// swapped in when Then wins, forks recycled across branches); the retained
// reference below clones twice, simulates both
// arms on the clones and then re-runs the winner on the cache. Both must
// leave bit-identical caches — contents, replacement state, clock and
// Stats — and return identical cycles.
//
// Run the corpus (testdata/fuzz/...) as part of `go test`; fuzz with
//
//	go test -run '^$' -fuzz FuzzWorstBranchSimulation -fuzztime 30s ./internal/wcet

import (
	"reflect"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/program"
)

// refSimulateNode is the three-simulation worst-branch reference.
func refSimulateNode(n program.Node, c *cachesim.Cache) int64 {
	switch v := n.(type) {
	case nil:
		return 0
	case program.Line:
		_, cyc := c.AccessRun(v.Addr, v.Fetches)
		return int64(cyc)
	case program.Seq:
		var total int64
		for _, child := range v {
			total += refSimulateNode(child, c)
		}
		return total
	case program.Loop:
		var total int64
		for i := 0; i < v.Count; i++ {
			total += refSimulateNode(v.Body, c)
		}
		return total
	case program.Branch:
		ct := refSimulateNode(v.Then, c.Clone())
		ce := refSimulateNode(v.Else, c.Clone())
		if ce > ct {
			return refSimulateNode(v.Else, c)
		}
		return refSimulateNode(v.Then, c)
	}
	panic(badNode(n))
}

// refSimulateHierNode is refSimulateNode against the two-level cache.
func refSimulateHierNode(n program.Node, c *cachesim.HierCache) int64 {
	switch v := n.(type) {
	case nil:
		return 0
	case program.Line:
		return int64(c.AccessRun(v.Addr, v.Fetches))
	case program.Seq:
		var total int64
		for _, child := range v {
			total += refSimulateHierNode(child, c)
		}
		return total
	case program.Loop:
		var total int64
		for i := 0; i < v.Count; i++ {
			total += refSimulateHierNode(v.Body, c)
		}
		return total
	case program.Branch:
		ct := refSimulateHierNode(v.Then, c.Clone())
		ce := refSimulateHierNode(v.Else, c.Clone())
		if ce > ct {
			return refSimulateHierNode(v.Else, c)
		}
		return refSimulateHierNode(v.Then, c)
	}
	panic(badNode(n))
}

// progDecoder turns fuzz bytes into a structured program with nested
// branches. Running out of bytes yields nil nodes (empty arms), which the
// simulators accept.
type progDecoder struct {
	data  []byte
	nodes int
}

func (d *progDecoder) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

// shift moves every line of n by delta bytes; shifting by a multiple of
// the cache size keeps every line in its set, so the shifted copy of an
// arm costs exactly what the arm costs from a cold cache while leaving
// different contents behind — the equal-cost arms whose tie-break (to
// Then) the final state exposes.
func shift(n program.Node, delta uint32) program.Node {
	switch v := n.(type) {
	case program.Line:
		return program.Line{Addr: v.Addr + delta, Fetches: v.Fetches}
	case program.Seq:
		out := make(program.Seq, len(v))
		for i, c := range v {
			out[i] = shift(c, delta)
		}
		return out
	case program.Loop:
		return program.Loop{Body: shift(v.Body, delta), Count: v.Count}
	case program.Branch:
		return program.Branch{Then: shift(v.Then, delta), Else: shift(v.Else, delta)}
	}
	return n
}

func (d *progDecoder) node(depth int, cacheBytes uint32) program.Node {
	if len(d.data) == 0 || d.nodes > 64 {
		return nil
	}
	d.nodes++
	op := d.next()
	if depth >= 4 {
		op -= op % 6 // only lines below the nesting limit
	}
	switch op % 6 {
	case 1:
		seq := make(program.Seq, 1+int(d.next()%3))
		for i := range seq {
			seq[i] = d.node(depth+1, cacheBytes)
		}
		return seq
	case 2:
		return program.Loop{Body: d.node(depth+1, cacheBytes), Count: 1 + int(d.next()%3)}
	case 3:
		then := d.node(depth+1, cacheBytes)
		switch d.next() % 3 {
		case 0: // identical arms: equal cost, identical final state
			return program.Branch{Then: then, Else: then}
		case 1: // conflicting copy: equal cold cost, different contents
			return program.Branch{Then: then, Else: shift(then, cacheBytes*uint32(1+d.next()%2))}
		}
		return program.Branch{Then: then, Else: d.node(depth+1, cacheBytes)}
	}
	return program.Line{Addr: fuzzAddr(d.next(), d.next()), Fetches: 1 + int(op>>4)%4}
}

// FuzzWorstBranchSimulation decodes a cache geometry, a replacement policy
// (LRU, FIFO, PLRU, or an LRU L1 under an inclusive or exclusive L2) and a
// program, runs the program twice back to back (cold, then warm) through
// the production and the reference worst-branch simulators, and demands
// identical cycles and identical final caches.
func FuzzWorstBranchSimulation(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 3, 0, 0, 16, 0, 0, 32})
	f.Add([]byte{1, 1, 0, 0, 3, 1, 0, 0, 16, 0, 0, 32, 2, 0, 0, 48})
	f.Add([]byte{2, 2, 0, 0, 1, 2, 3, 0, 0, 16, 1, 3, 0, 1, 0, 0, 0, 2, 0, 16, 16})
	f.Add([]byte{3, 1, 1, 64, 3, 0, 0, 0, 16, 2, 2, 0, 0, 32, 0, 0, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		cfg := fuzzConfig(data[0], data[1])
		hier := data[0]&0x30 == 0x30
		if !hier {
			cfg.Policy = []cachesim.Policy{cachesim.LRU, cachesim.FIFO, cachesim.PLRU}[int(data[0]>>4)%3]
		}
		h := fuzzHier(data[2], data[3])
		d := &progDecoder{data: data[4:]}
		root := d.node(0, uint32(cfg.SizeBytes()))

		if hier {
			got, want := cachesim.MustNewHier(cfg, h), cachesim.MustNewHier(cfg, h)
			f := &forks[*cachesim.HierCache]{}
			for run := 0; run < 2; run++ {
				g, w := simulateHierNode(root, got, f), refSimulateHierNode(root, want)
				if g != w {
					t.Fatalf("hier %+v run %d: %d cycles, reference %d", h, run, g, w)
				}
				if got.Stats() != want.Stats() {
					t.Fatalf("hier run %d: stats %+v, reference %+v", run, got.Stats(), want.Stats())
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("hier %+v run %d: final cache state differs from the reference", h, run)
				}
			}
			return
		}
		got, want := cachesim.MustNew(cfg), cachesim.MustNew(cfg)
		f := &forks[*cachesim.Cache]{}
		for run := 0; run < 2; run++ {
			g, w := simulateNode(root, got, f), refSimulateNode(root, want)
			if g != w {
				t.Fatalf("%+v run %d: %d cycles, reference %d", cfg, run, g, w)
			}
			if got.Stats() != want.Stats() {
				t.Fatalf("%+v run %d: stats %+v, reference %+v", cfg, run, got.Stats(), want.Stats())
			}
			if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
				t.Fatalf("%+v run %d: contents %v, reference %v", cfg, run, got.Snapshot(), want.Snapshot())
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v run %d: replacement state differs from the reference", cfg, run)
			}
		}
	})
}
