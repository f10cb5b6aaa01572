package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"anongeo/internal/lbs"
)

// lbsSpec is one LBS cell of the mix: one lbs.Run call.
type lbsSpec struct {
	label string // backend and size, e.g. "kanon/c200/q10000"
	cfg   lbs.Config
}

// lbsCells is replicate rep of the LBS mix: one lbs.Run cell per
// backend, each about the size of one /v1/lbs cell and sized so each
// takes roughly a quarter of the replicate's wall time on the
// reference host. paperals pays an RSA key pair per client and RSA per
// report and query, so it gets few clients and few queries; kanon's
// cloak scan grows with the population squared, so it gets a modest
// population.
func lbsCells(seed int64, rep int, tiny bool) []lbsSpec {
	scale := 1
	if tiny {
		scale = 10
	}
	var out []lbsSpec
	for i, b := range lbs.Backends() {
		cfg := lbs.DefaultConfig()
		cfg.Seed = deriveSeed(seed, rep, i)
		cfg.Backend = b
		cfg.Duration = 60 * time.Second
		cfg.K = 0
		switch b {
		case lbs.BackendPaperALS:
			cfg.Clients, cfg.Buddies, cfg.Queries, cfg.KeyBits = 3, 2, 100, 512
			cfg.Duration = 30 * time.Second
		case lbs.BackendKAnon:
			cfg.Clients, cfg.Queries, cfg.K = 200, 10000, 5
		case lbs.BackendGridCloak:
			cfg.Clients, cfg.Queries, cfg.GridLevel = 600, 30000, 5
		case lbs.BackendGeoInd:
			cfg.Clients, cfg.Queries, cfg.Epsilon = 300, 15000, 0.02
		}
		if tiny {
			cfg.Clients = max(cfg.Clients/scale, cfg.Buddies+1)
			cfg.Queries /= scale
		}
		out = append(out, lbsSpec{label: fmt.Sprintf("%s/c%d/q%d", b, cfg.Clients, cfg.Queries), cfg: cfg})
	}
	return out
}

// runLBSCell runs one cell through lbs.Run and sanity-checks it.
func runLBSCell(c lbsSpec) (lbs.Result, time.Duration, error) {
	start := time.Now()
	res, err := lbs.Run(c.cfg)
	wall := time.Since(start)
	if err != nil {
		return res, wall, err
	}
	if res.Queries != c.cfg.Queries || res.Answered == 0 || res.Answered > res.Queries {
		return res, wall, fmt.Errorf("answered %d of %d queries (config asked %d)", res.Answered, res.Queries, c.cfg.Queries)
	}
	return res, wall, nil
}

// lbsReplicateDigest folds the digests of one replicate's cells, each
// with its label, into the replicate's digest. A resized or renamed
// cell therefore changes the digest, as a changed result does.
func lbsReplicateDigest(cells []lbsSpec, digests []string) string {
	h := sha256.New()
	for i, c := range cells {
		fmt.Fprintf(h, "%s %s\n", c.label, digests[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// lbsKey is the digest key of replicate rep of the mix: its total
// query count and its index, so a tiny run never reads a full one's
// digest.
func lbsKey(cells []lbsSpec, rep int) string {
	q := 0
	for _, c := range cells {
		q += c.cfg.Queries
	}
	return fmt.Sprintf("q%d/r%d", q, rep)
}

// lbsReplicate runs one replicate of the mix, cell by cell, passing
// each result and its wall time to each, and returns the replicate's
// digest.
func lbsReplicate(cells []lbsSpec, each func(lbsSpec, lbs.Result, time.Duration)) (string, error) {
	var digests []string
	for _, c := range cells {
		runtime.GC() // as in runFig1
		res, wall, err := runLBSCell(c)
		if err != nil {
			return "", fmt.Errorf("%s: %w", c.label, err)
		}
		d, err := digestOf(res)
		if err != nil {
			return "", fmt.Errorf("%s: %w", c.label, err)
		}
		digests = append(digests, d)
		if each != nil {
			each(c, res, wall)
		}
	}
	return lbsReplicateDigest(cells, digests), nil
}

// lbsSetupSamples is how many times the LBS set-up is timed per run.
const lbsSetupSamples = 41

// lbsReplicateNominal is the nominal wall time of one replicate of the
// mix on the reference host (see fig1Replicate).
const lbsReplicateNominal = 180 * time.Millisecond

// runLBS runs the replicates of the backend mix that fill d serially,
// then replicate 0 again to check it repeats exactly. Each lbs.Run call
// is one operation.
//
// lbs.Run folds set-up into the run, so set-up time is measured apart:
// the same four backends over the same populations for a single report
// epoch and a single query, which is what it costs to stand a backend
// up (population, anonymizer, key pairs) before any load.
func runLBS(p params, d time.Duration) (*window, error) {
	w := &window{layer: map[string]float64{}}
	for i := 0; i < lbsSetupSamples; i++ {
		var total time.Duration
		runtime.GC()
		for _, c := range lbsCells(p.seed, 0, p.tiny) {
			c.cfg.Queries, c.cfg.Duration = 1, c.cfg.UpdateInterval
			_, wall, err := runLBSCell(c)
			if err != nil {
				return nil, fmt.Errorf("lbs set-up %s: %w", c.label, err)
			}
			total += wall
		}
		w.setups = append(w.setups, total.Seconds())
	}

	queries := map[lbs.Backend]float64{}
	wall := map[lbs.Backend]time.Duration{}
	timed := func(c lbsSpec, res lbs.Result, t time.Duration) {
		w.attempted++
		w.add(float64(res.Queries), t)
		queries[c.cfg.Backend] += float64(res.Queries)
		wall[c.cfg.Backend] += t
	}
	run := func(rep int) (string, bool) {
		cells := lbsCells(p.seed, rep, p.tiny)
		dg, err := lbsReplicate(cells, timed)
		if err != nil {
			w.attempted++
			w.fail("lbs r%d %v", rep, err)
			return "", false
		}
		p.checkDigest(w, "lbs", rep, lbsKey(cells, rep), dg)
		return dg, true
	}
	ok := true
	p.measured(func() {
		var first, dg string
		for rep := 0; rep < replicates(d, lbsReplicateNominal); rep++ {
			if dg, ok = run(rep); !ok {
				return
			}
			if rep == 0 {
				first = dg
			}
		}
		if dg, ok = run(0); ok && dg != first {
			w.fail("lbs r0: rerun differs")
		}
	})
	if !ok {
		return w, nil
	}
	for b, q := range queries {
		w.layer["lbs."+string(b)+".queries_per_s"] = ratio(q, wall[b].Seconds())
	}
	return w, nil
}
