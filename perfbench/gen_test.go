package main

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestScheduleSameSeedSameCalls(t *testing.T) {
	for _, s := range specs {
		a, err := schedule(s, 7, s.rate, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, err := schedule(s, 7, s.rate, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two schedules from seed 7 differ", s.name)
		}
		c, err := schedule(s, 8, s.rate, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a, c) {
			t.Fatalf("%s: seeds 7 and 8 gave the same schedule", s.name)
		}
	}
}

// The generated schedule follows the spec: due times rise inside the
// phase at about the nominal rate, and each class gets about its share.
func TestScheduleFollowsSpec(t *testing.T) {
	for _, s := range specs {
		const dur = 5 * time.Second
		ops, err := schedule(s, 3, s.rate, dur)
		if err != nil {
			t.Fatal(err)
		}
		want := s.rate * dur.Seconds()
		if n := float64(len(ops)); math.Abs(n-want) > 4*math.Sqrt(want) {
			t.Errorf("%s: %v calls in %v, want about %.0f", s.name, n, dur, want)
		}
		var counts [numClasses]int
		last := time.Duration(-1)
		for _, o := range ops {
			if o.due < last || o.due >= dur {
				t.Fatalf("%s: due time %v out of order or past %v", s.name, o.due, dur)
			}
			last = o.due
			counts[o.class]++
			limit := s.keys
			if o.class == classSearch {
				limit = s.words
			}
			if int(o.key) >= limit || o.key < 0 {
				t.Fatalf("%s: key %d outside [0,%d)", s.name, o.key, limit)
			}
		}
		for c, share := range s.mix {
			got := float64(counts[c]) / float64(len(ops))
			if math.Abs(got-share) > 0.02 {
				t.Errorf("%s: class %s got share %.3f, want %.2f", s.name, classNames[c], got, share)
			}
		}
	}
}

func TestQuantilesExactAgainstFullSort(t *testing.T) {
	rng := workload.NewRNG(99)
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 4321} {
		xs := make([]time.Duration, n)
		for i := range xs {
			xs[i] = time.Duration(rng.Intn(5000)) // ties are likely
		}
		ref := append([]time.Duration(nil), xs...)
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		qs := []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1}
		got := quantiles(append([]time.Duration(nil), xs...), qs...)
		for i, q := range qs {
			// Nearest rank: the smallest sample with at least q·n samples
			// at or below it.
			rank := int(math.Ceil(q * float64(n)))
			want := ref[max(rank, 1)-1]
			if got[i] != want {
				t.Errorf("n=%d q=%v: got %v, want %v", n, q, got[i], want)
			}
			below, atOrBelow := 0, 0
			for _, x := range xs {
				if x < got[i] {
					below++
				}
				if x <= got[i] {
					atOrBelow++
				}
			}
			if float64(atOrBelow) < q*float64(n) || (q > 0 && float64(below) >= q*float64(n)) {
				t.Errorf("n=%d q=%v: %v is not the nearest-rank quantile (%d below, %d at or below)", n, q, got[i], below, atOrBelow)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// auditFinal accepts the value of any write whose outcome is open, and
// rejects one a later acknowledged write overwrote.
func TestAuditFinal(t *testing.T) {
	l := &ledger{}
	p := l.add([]op{
		{due: 0, class: classWrite, key: 5},
		{due: 10 * time.Millisecond, class: classWrite, key: 5},
		{due: 20 * time.Millisecond, class: classWrite, key: 5},
		{due: 20 * time.Millisecond, class: classRead, key: 6},
	}, time.Second)
	p.start = time.Now()
	p.recs = []rec{
		{lat: time.Millisecond, ok: true, sent: true},      // done before the next began
		{lat: 50 * time.Millisecond, ok: true, sent: true}, // overlaps the third
		{lat: time.Second, sent: true},                     // timed out: outcome open
		{lat: time.Millisecond, ok: true, sent: true},
	}
	for _, c := range []struct {
		v  int
		ok bool
	}{
		{writeValue(0, 5), false}, // overwritten by write 1
		{writeValue(1, 5), true},
		{writeValue(2, 5), true},
		{writeValue(3, 5), false}, // a read, not a write
		{-1, false},               // acknowledged writes exist
	} {
		if err := auditFinal(l, 5, c.v); (err == nil) != c.ok {
			t.Errorf("auditFinal(key 5, %d) = %v, want ok=%v", c.v, err, c.ok)
		}
	}
	if err := auditFinal(l, 6, -1); err != nil {
		t.Errorf("never-written key: %v", err)
	}
}
