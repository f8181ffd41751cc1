package main

import (
	"reflect"
	"testing"
)

// The seams must be invisible to the program: a traced round computes
// the same simulated cells and counters as an untraced one, and the
// bulk and small cells are the Table 1 row bench.RunMicroCollect
// computes for BetrFS v0.6 at the same scale. That makes the stack this
// benchmark assembles, wrappers included, the program the paper
// reproduction measures. (wire is left out: its two streams interleave
// differently from run to run, so its cells are not deterministic.)
func TestSeamsAreTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three workloads twice")
	}
	untraced := make(map[string]*round)
	for _, w := range []string{"bulk", "small", "shard"} {
		plain := newRound(7, nil)
		if err := workloads[w](plain, benchScale); err != nil {
			t.Fatalf("%s untraced: %v", w, err)
		}
		traced := newRound(7, newRecorder(true))
		if err := workloads[w](traced, benchScale); err != nil {
			t.Fatalf("%s traced: %v", w, err)
		}
		if traced.rec.spans == 0 {
			t.Errorf("%s: the traced round recorded no spans", w)
		}
		if !reflect.DeepEqual(plain.sim, traced.sim) {
			t.Errorf("%s: simulated cells differ\nuntraced %v\ntraced   %v", w, plain.sim, traced.sim)
		}
		if !reflect.DeepEqual(plain.snap, traced.snap) {
			t.Errorf("%s: program counters differ between untraced and traced rounds", w)
		}
		untraced[w] = plain
	}

	for name, v := range referenceCells(benchScale) {
		got := untraced["bulk"].sim[name] + untraced["small"].sim[name]
		if got != v {
			t.Errorf("%s = %v, RunMicroCollect has %v", name, got, v)
		}
	}
}
