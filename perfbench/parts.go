package main

import (
	"slices"
	"time"
)

// A wire workload's measured window is cut into partCount equal parts.
// Before the first part and after every part the benchmark samples the
// host's speed with its two reference echoes (ref.go); around each part
// it reads the host's CPU counters and the daemon's CPU time. Every gated
// time metric is a median over the quiet parts, normalized by the median
// of the run's samples of one echo (normalize). A run on a slow host
// slows the reference with it, and the figure stays put. Within a run
// the parts vary about as much against their neighbouring reference
// samples as on their own, so one median speed per run is the steadier
// divisor.
//
// The quiet parts are those in which the hypervisor stole at most
// quietSteal of this guest's CPU; when fewer than half the parts are that
// quiet, they are the least-stolen half, plus any part that ties the last
// of them. Steal comes in bursts shorter than a part, which a reference
// sample may miss: on the 2-vCPU guest the benchmark was written on,
// parts with 20-30% steal ran 40% slower against the reference than
// parts without. The choice looks only at steal, never at the metrics.
const (
	partCount  = 20
	quietSteal = 0.02
)

// parts is one window's readings, split by part.
type parts struct {
	rates []float64 // completed ops per second
	lats  []samples // round trips, by the part they ran in
	cpu   []float64 // daemon CPU µs per completed op
	steal []float64 // share of the guest's CPU time the hypervisor stole
	// Reference rates of the local and the process echo, before the
	// first part and after each, and the steal share over each sample.
	local, proc           []float64
	localSteal, procSteal []float64
	quiet                 []int   // the quiet parts, in order
	secs                  float64 // the parts' total wall time, reference samples excluded
}

// measureParts runs the window as partCount parts of d/partCount each,
// with reference samples around each, and returns the summed tally, the
// per-part readings and the daemon's CPU counters at either end.
func measureParts(s *wireSession, streams []*connStream, k *keys, spec wireSpec, d time.Duration, local, proc *netRef) (tally, parts, [2]procSample, error) {
	var sum tally
	var p parts
	var ends [2]procSample
	sample := func() error {
		h0 := sampleHost()
		l, err := local.rate(refSlice)
		if err != nil {
			return err
		}
		h1 := sampleHost()
		r, err := proc.rate(refSlice)
		if err != nil {
			return err
		}
		p.local = append(p.local, l)
		p.proc = append(p.proc, r)
		p.localSteal = append(p.localSteal, stealShare(h0, h1))
		p.procSteal = append(p.procSteal, stealShare(h1, sampleHost()))
		return nil
	}
	if err := sample(); err != nil {
		return sum, p, ends, err
	}
	for i := 0; i < partCount; i++ {
		h0 := sampleHost()
		p0, err := readProc(s.d.pid())
		if err != nil {
			return sum, p, ends, err
		}
		t, secs, err := window(s.conns, streams, k, spec, d/partCount, 1<<62, false)
		if err != nil {
			return sum, p, ends, err
		}
		p1, err := readProc(s.d.pid())
		if err != nil {
			return sum, p, ends, err
		}
		h1 := sampleHost()
		if err := sample(); err != nil {
			return sum, p, ends, err
		}
		if i == 0 {
			ends[0] = p0
		}
		ends[1] = p1
		var lat samples
		for _, rd := range t.rounds {
			lat.add(rd.lat)
		}
		busy := (p1.user + p1.sys) - (p0.user + p0.sys)
		p.rates = append(p.rates, float64(t.ops)/secs)
		p.lats = append(p.lats, lat)
		p.cpu = append(p.cpu, float64(busy)/1e3/float64(max(t.ops, 1)))
		p.steal = append(p.steal, stealShare(h0, h1))
		p.secs += secs
		sum.add(t)
	}
	p.quiet = quietParts(p.steal)
	return sum, p, ends, nil
}

// quietParts returns the indices of the parts with at most quietSteal
// steal, or if those are fewer than half, of the len(steal)/2
// least-stolen parts and every other part whose steal ties the last of
// them.
func quietParts(steal []float64) []int {
	sorted := slices.Clone(steal)
	slices.Sort(sorted)
	cut := max(sorted[(len(sorted)+1)/2-1], quietSteal)
	var quiet []int
	for i, s := range steal {
		if s <= cut {
			quiet = append(quiet, i)
		}
	}
	return quiet
}

// speed is the median rate of a reference over its quiet samples, chosen
// by the steal over each sample as the quiet parts are: the workload's
// figures come from quiet parts, so the speed they are scaled by must
// too. In a run with 14% steal, the median of all local echo samples
// ran 17% slow while the median request latency of the quiet parts did
// not move.
func speed(rates, steal []float64) float64 {
	var q []float64
	for _, i := range quietParts(steal) {
		q = append(q, rates[i])
	}
	return median(q)
}

// quietMedian is the median of xs over the quiet parts.
func (p parts) quietMedian(xs []float64) float64 {
	var q []float64
	for _, i := range p.quiet {
		q = append(q, xs[i])
	}
	return median(q)
}

// latency is the median over the quiet parts of each part's q-quantile,
// in µs.
func (p parts) latency(q float64) float64 {
	var qs []float64
	for _, i := range p.quiet {
		if len(p.lats[i]) > 0 {
			qs = append(qs, float64(p.lats[i].quantile(q))/1e3)
		}
	}
	return median(qs)
}
