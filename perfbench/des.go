package main

import (
	"fmt"
	"runtime"
	"time"

	"anongeo/internal/core"
	"anongeo/internal/geo"
	"anongeo/internal/neighbor"
)

// cellSpec is one simulator cell: the key its digest is recorded
// under, and its scenario.
type cellSpec struct {
	key string
	cfg core.Config
}

// deriveSeed spreads (seed, parts...) over the int64 range with
// splitmix64, so neighbouring workload seeds share no cell.
func deriveSeed(seed int64, parts ...int) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x += 0x9e3779b97f4a7c15 * uint64(p+1)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}

// fig1Config is the paper's Figure 1 scenario as cmd/bench runs it:
// 1500×300 m, modeled crypto, the oracle location service, 64-byte CBR
// every 300 ms.
func fig1Config(proto core.Protocol, nodes int, seed int64, dur time.Duration) core.Config {
	cfg := core.DefaultConfig()
	cfg.Protocol = proto
	cfg.Nodes = nodes
	cfg.Seed = seed
	cfg.Area = geo.NewRect(1500, 300)
	cfg.Duration = dur
	cfg.PacketInterval = 300 * time.Millisecond
	cfg.PayloadBytes = 64
	cfg.Policy = neighbor.PolicyWeighted
	cfg.ReachFilter = true
	return cfg
}

var fig1Protocols = []core.Protocol{core.ProtoGPSR, core.ProtoAGFW, core.ProtoAGFWNoAck}

// fig1Cells is replicate rep of the Figure 1 grid: three protocols ×
// N ∈ {50, 100, 150}, 60 simulated seconds each. The protocols at one
// N share a seed, as the paper's curves do.
func fig1Cells(seed int64, rep int, tiny bool) []cellSpec {
	nodes, dur := []int{50, 100, 150}, 60*time.Second
	if tiny {
		nodes, dur = []int{20, 40}, 12*time.Second
	}
	var cells []cellSpec
	for _, n := range nodes {
		for _, proto := range fig1Protocols {
			cells = append(cells, cellSpec{
				key: fmt.Sprintf("%s/N%d/r%d", proto, n, rep),
				cfg: fig1Config(proto, n, deriveSeed(seed, rep, n), dur),
			})
		}
	}
	return cells
}

// cellOut is one executed cell.
type cellOut struct {
	res          core.Result
	digest       string
	events       uint64
	simS         float64
	build, total time.Duration
}

// runCell builds and runs one scenario through core's public entry
// points, timing Build separately from the whole.
func runCell(cfg core.Config) (cellOut, error) {
	start := time.Now()
	n, err := core.Build(cfg)
	if err != nil {
		return cellOut{}, err
	}
	build := time.Since(start)
	res, err := n.Run()
	if err != nil {
		return cellOut{}, err
	}
	total := time.Since(start)
	d, err := digestOf(res)
	if err != nil {
		return cellOut{}, err
	}
	return cellOut{res: res, digest: d, events: n.Eng.Processed(), simS: n.Eng.Now().Seconds(), build: build, total: total}, nil
}

// plausible rejects results no correct run of these scenarios yields.
func plausible(r core.Result) error {
	s := r.Summary
	switch {
	case s.Sent == 0:
		return fmt.Errorf("no packets sent")
	case s.Delivered == 0 || s.Delivered > s.Sent:
		return fmt.Errorf("delivered %d of %d sent", s.Delivered, s.Sent)
	case r.Channel.Transmissions == 0:
		return fmt.Errorf("no radio transmissions")
	}
	return nil
}

// fig1Replicate is the nominal wall time of one replicate on the
// reference host (2 vCPUs): a run of d seconds does round(d / nominal)
// replicates, so every run of one seed and length does the same work.
// At 30 s that is 13 replicates and the rerun, 126 cells, so the
// latency p90 has twelve cells beyond it.
const fig1Replicate = 2300 * time.Millisecond

// replicates is how many replicates of nominal length fill d (at
// least one).
func replicates(d, nominal time.Duration) int {
	return max(1, int((d+nominal/2)/nominal))
}

// runFig1 runs the replicates of the Figure 1 grid that fill d,
// serially on this goroutine, then replicate 0 once more to check that
// it repeats exactly. Set-up time is the sum of core.Build times of one
// replicate, one sample per replicate.
func runFig1(p params, d time.Duration) (*window, error) {
	const name = "fig1"
	reps := replicates(d, fig1Replicate)
	w := &window{layer: map[string]float64{}}
	var first []cellOut
	var events uint64
	var totalSimS float64
	m0 := memSnap()
	run := func(rep int, c cellSpec) (cellOut, bool) {
		w.attempted++
		// Each cell starts from a collected heap, so one cell's garbage
		// is not billed to the next; the collection is not timed.
		runtime.GC()
		out, err := runCell(c.cfg)
		if err != nil {
			w.fail("%s %s: %v", name, c.key, err)
			return out, false
		}
		if err := plausible(out.res); err != nil {
			w.fail("%s %s: %v", name, c.key, err)
		}
		p.checkDigest(w, name, rep, c.key, out.digest)
		w.add(out.simS, out.total)
		events += out.events
		totalSimS += out.simS
		return out, true
	}
	ok := true
	p.measured(func() {
		for rep := 0; rep < reps && ok; rep++ {
			var build time.Duration
			for _, c := range fig1Cells(p.seed, rep, p.tiny) {
				var out cellOut
				if out, ok = run(rep, c); !ok {
					return
				}
				build += out.build
				if rep == 0 {
					first = append(first, out)
				}
			}
			w.setups = append(w.setups, build.Seconds())
		}
		for i, c := range fig1Cells(p.seed, 0, p.tiny) {
			var out cellOut
			if out, ok = run(0, c); !ok {
				return
			}
			if out.digest != first[i].digest || out.events != first[i].events {
				w.fail("%s %s: rerun differs (events %d vs %d)", name, c.key, out.events, first[i].events)
			}
		}
	})
	if !ok {
		return w, nil
	}
	m1 := memSnap()

	// Per-layer counts come from replicate 0, so they are a pure
	// function of the seed.
	var simS float64
	var ev uint64
	var sum core.Result
	for _, o := range first {
		simS += o.simS
		ev += o.events
		r := o.res
		sum.Channel.Transmissions += r.Channel.Transmissions
		sum.Channel.Deliveries += r.Channel.Deliveries
		sum.Channel.Collisions += r.Channel.Collisions
		sum.MAC.DataSent += r.MAC.DataSent
		sum.MAC.RTSSent += r.MAC.RTSSent
		sum.MAC.CTSSent += r.MAC.CTSSent
		sum.MAC.AckSent += r.MAC.AckSent
		sum.MAC.Delivered += r.MAC.Delivered
		sum.MAC.Retries += r.MAC.Retries
		sum.MAC.RetryDrops += r.MAC.RetryDrops
		sum.MAC.QueueDrops += r.MAC.QueueDrops
		sum.GPSR.BeaconsSent += r.GPSR.BeaconsSent
		sum.GPSR.DataForwarded += r.GPSR.DataForwarded
		sum.AGFW.BeaconsSent += r.AGFW.BeaconsSent
		sum.AGFW.Forwards += r.AGFW.Forwards
		sum.AGFW.TrapdoorTries += r.AGFW.TrapdoorTries
		sum.AGFW.TrapdoorOpens += r.AGFW.TrapdoorOpens
		sum.AGFW.Retransmits += r.AGFW.Retransmits
	}
	ch, mc, ag := sum.Channel, sum.MAC, sum.AGFW
	l := w.layer
	l["sim.events"] = float64(ev)
	l["sim.events_per_sim_s"] = ratio(float64(ev), simS)
	l["radio.transmissions"] = float64(ch.Transmissions)
	l["radio.rx_per_tx"] = ratio(float64(ch.Deliveries+ch.Collisions), float64(ch.Transmissions))
	l["radio.collision_ratio"] = ratio(float64(ch.Collisions), float64(ch.Deliveries+ch.Collisions))
	l["mac.frames"] = float64(mc.DataSent + mc.RTSSent + mc.CTSSent + mc.AckSent)
	l["mac.delivered_per_data"] = ratio(float64(mc.Delivered), float64(mc.DataSent))
	l["mac.retries"] = float64(mc.Retries)
	l["mac.drops"] = float64(mc.RetryDrops + mc.QueueDrops)
	l["neighbor.beacons"] = float64(sum.GPSR.BeaconsSent + ag.BeaconsSent)
	l["gpsr.forwards"] = float64(sum.GPSR.DataForwarded)
	l["agfw.forwards"] = float64(ag.Forwards)
	l["agfw.trapdoor_tries"] = float64(ag.TrapdoorTries)
	l["agfw.opens_per_try"] = ratio(float64(ag.TrapdoorOpens), float64(ag.TrapdoorTries))
	l["agfw.retransmits"] = float64(ag.Retransmits)
	l["runtime.alloc_mb_per_sim_s"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), totalSimS)
	l["runtime.allocs_per_event"] = ratio(float64(m1.Mallocs-m0.Mallocs), float64(events))
	// The forced collection before each cell is not counted.
	l["runtime.gc_cycles"] = ratio(float64(m1.NumGC-m0.NumGC)-float64(w.attempted), float64(w.attempted))
	return w, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
