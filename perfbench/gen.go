package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/workload"
)

// Call classes. A workload's mix says which share of its arrivals each
// class gets; the client of the workload maps a class onto an entry.
const (
	classRead   uint8 = iota // Database.Read, Registry.Get
	classWrite               // Database.Write, Registry.Put, fabric Append
	classSearch              // Dictionary.Search
	numClasses
)

var classNames = [numClasses]string{"read", "write", "search"}

// spec fixes one workload: its offered load, its keys and the latency
// limit its capacity probe holds p99 under.
type spec struct {
	name  string
	rate  float64       // nominal offered rate, ops/s (Poisson arrivals)
	limit time.Duration // p99 limit a capacity probe must meet
	mix   [numClasses]float64
	keys  int
	skew  float64 // Zipf exponent over keys
	words int     // Dictionary vocabulary (managed-rw only)
	wskew float64
	// payload is the mean fabric append payload; sizes vary ±1/8 around
	// it so the codec never sees one fixed frame length.
	payload int
}

// specs are the workloads. Each stresses different layers, and together
// each layer has one workload that exercises it and one that bypasses it:
//
//   - managed-rw: core manager work (the readers-writers hidden array,
//     request combining) plus rpc/wire; the null case for wal, replica
//     and fabric.
//   - replicated-registry: replica (combined proposals, ReadIndex) and the
//     wal fsync; core does little, the Registry's entries are unmanaged.
//   - fabric-append: fabric routing, the ledger and a journal fsync per
//     ~1 KiB append; no replica.
//
// Nominal rates keep the 2-core box about a quarter busy (daemons and
// generator together), far enough below saturation that the CPU time
// the hypervisor takes from the box in bursts does not queue calls up.
// The p99 limits sit about ten times above the nominal p99, so a capacity
// probe fails where the deployment saturates, not where the tail is noisy.
var specs = []spec{
	{
		name:  "managed-rw",
		rate:  8000,
		limit: 10 * time.Millisecond,
		mix:   [numClasses]float64{0.60, 0.15, 0.25},
		keys:  1024, skew: 1.1,
		words: 4096, wskew: 1.1,
	},
	{
		name:  "replicated-registry",
		rate:  1500,
		limit: 50 * time.Millisecond,
		mix:   [numClasses]float64{0.80, 0.20, 0},
		keys:  1024, skew: 1.1,
	},
	{
		name:  "fabric-append",
		rate:  2000,
		limit: 25 * time.Millisecond,
		mix:   [numClasses]float64{0, 1, 0},
		keys:  4096, skew: 0.9,
		payload: 1024,
	},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// op is one generated call: when it is due (offset from the phase start),
// its class and its key (a word index for searches).
type op struct {
	due   time.Duration
	class uint8
	key   int32
}

// schedule generates the calls of one phase: Poisson arrivals at rate for
// dur, classes drawn from the mix and keys from the spec's Zipf laws. The
// same seed always yields the same schedule.
func schedule(s spec, seed uint64, rate float64, dur time.Duration) ([]op, error) {
	rng := workload.NewRNG(seed)
	keys, err := workload.NewZipf(workload.NewRNG(seed^0x6b657973), s.keys, s.skew)
	if err != nil {
		return nil, err
	}
	var words *workload.Zipf
	if s.words > 0 {
		if words, err = workload.NewZipf(workload.NewRNG(seed^0x776f7264), s.words, s.wskew); err != nil {
			return nil, err
		}
	}
	ops := make([]op, 0, int(rate*dur.Seconds()*1.1)+16)
	t := 0.0
	for {
		// Exponential gap: -ln(1-U)/rate, U in [0,1).
		t += -math.Log(1-rng.Float64()) / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return ops, nil
		}
		o := op{due: due, class: pick(s.mix, rng.Float64())}
		if o.class == classSearch {
			o.key = int32(words.Next())
		} else {
			o.key = int32(keys.Next())
		}
		ops = append(ops, o)
	}
}

// pick maps u in [0,1) onto a class by cumulative share.
func pick(mix [numClasses]float64, u float64) uint8 {
	acc := 0.0
	last := uint8(0)
	for c, share := range mix {
		if share == 0 {
			continue
		}
		acc += share
		last = uint8(c)
		if u < acc {
			return uint8(c)
		}
	}
	return last
}

// quantiles returns the nearest-rank quantiles of xs: for q, the smallest
// x such that at least q·n samples are ≤ x. xs is sorted in place.
func quantiles(xs []time.Duration, qs ...float64) []time.Duration {
	slices.Sort(xs)
	out := make([]time.Duration, len(qs))
	if len(xs) == 0 {
		return out
	}
	for i, q := range qs {
		r := int(math.Ceil(q*float64(len(xs)))) - 1
		out[i] = xs[min(max(r, 0), len(xs)-1)]
	}
	return out
}

// median returns the middle of xs (mean of the two middles for an even
// count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
