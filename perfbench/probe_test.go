package main

import (
	"testing"
	"time"

	"github.com/ucad/ucad/internal/serve"
)

// TestProberKeepsSlowVerdicts checks that every registered probe becomes
// a latency sample: one seen in an open alert, one seen only once its
// alert was final, and one never seen before the deadline.
func TestProberKeepsSlowVerdicts(t *testing.T) {
	t0 := time.Unix(1000, 0)
	p := newProber()
	p.register("a", 40, t0)
	p.register("b", 40, t0)
	p.register("c", 40, t0)
	p.observe([]serve.Alert{
		{Client: "a", Positions: []int{40}, UpdatedAt: t0.Add(3 * time.Millisecond)},
		{Client: "b", Positions: []int{12, 40}, Final: true, UpdatedAt: t0.Add(4 * time.Second)},
		{Client: "c", Positions: []int{12}, UpdatedAt: t0.Add(time.Millisecond)},
	})
	p.expire(t0.Add(9 * time.Second))

	want := map[time.Duration]bool{3 * time.Millisecond: true, 4 * time.Second: true, 9 * time.Second: true}
	if len(p.samples) != len(want) {
		t.Fatalf("samples %v, want one per probe: %v", p.samples, want)
	}
	for _, d := range p.samples {
		if !want[d] {
			t.Errorf("unexpected sample %v (want %v)", d, want)
		}
	}
	if p.late != 1 || p.unseen != 1 || p.bounded != 0 || p.pending() != 0 {
		t.Errorf("late %d unseen %d bounded %d pending %d; want 1 1 0 0", p.late, p.unseen, p.bounded, p.pending())
	}
}
