package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"trips/internal/analytics"
	"trips/internal/core"
	"trips/internal/position"
)

// minPasses is the fewest batch passes a run makes, so the medians always
// have something to choose from.
const minPasses = 3

// visibility stamps each result once the sinks before it in a
// core.MultiSink have filed it: the batch path's answer to "when did this
// trip become visible".
type visibility struct {
	t0 time.Time
	mu sync.Mutex
	at map[position.DeviceID]time.Duration
}

func (v *visibility) IngestResult(res core.Result) error {
	at := time.Since(v.t0)
	v.mu.Lock()
	v.at[res.Device] = at
	v.mu.Unlock()
	return nil
}

// spanSink records a span around the next sink's IngestResult; in the
// untraced run the recorder is nil and it only forwards.
type spanSink struct {
	r      *run
	name   string
	parent int64
	next   core.ResultSink
}

func (s spanSink) IngestResult(res core.Result) error {
	sp := s.r.rec.start(s.name, s.parent)
	err := s.next.IngestResult(res)
	sp.end()
	return err
}

// batchVenueDay runs the paper's offline Translator over the whole day,
// into a durable warehouse plus analytics, pass after pass for the run.
func batchVenueDay(r *run) error {
	day, err := timeSetup(r, func() (*venueDay, error) {
		return newVenueDay(r.seed, shoppersFor(r.seconds))
	}, func(*venueDay) {})
	if err != nil {
		return err
	}
	tr := day.env.Trans
	n := float64(day.records)
	r.logf("day: %d shoppers, %d records", day.ds.NumDevices(), day.records)

	var (
		rates, cpus, fresh samples
		trips              int
		last               []core.Result
		lastDir            string
		lastTrips          int
		ins                = newInstruments()
	)
	heap := startHeapSampler()
	deadline := time.Now().Add(time.Duration(r.seconds) * time.Second)
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("batch-%d", pass))
		vis := &visibility{at: make(map[position.DeviceID]time.Duration)}
		// Collecting first, without the last pass's results, makes every
		// pass meet the collector at the same point of its work and start
		// from the heap the sampler's baseline saw.
		last = nil
		runtime.GC()
		r.attempted++
		cpu0 := cpuTime()
		t0 := time.Now()
		vis.t0 = t0
		psp := r.rec.start("core.pass", 0)
		wh, err := openWarehouse(dir, ins)
		if err != nil {
			return err
		}
		an := analytics.New(analytics.Config{Metrics: ins.analytics})
		results, err := tr.TranslateTo(day.ds, core.MultiSink(
			spanSink{r, "tripstore.IngestResult", psp.id, wh},
			spanSink{r, "analytics.IngestResult", psp.id, an}, vis))
		if err == nil {
			err = wh.Close()
		}
		psp.end()
		elapsed := time.Since(t0)
		cpu := cpuTime() - cpu0
		if err != nil {
			r.failed++
			return fmt.Errorf("batch pass %d: %w", pass, err)
		}
		rates = append(rates, n/elapsed.Seconds())
		cpus = append(cpus, float64(cpu)/1e3/n)

		whSt := wh.Stats()
		anSt := an.Stats()
		produced := 0
		for _, res := range results {
			produced += res.Final.Len()
			for range res.Final.Triplets {
				fresh = append(fresh, float64(vis.at[res.Device])/1e6)
			}
		}
		r.check("results-warehoused", produced == whSt.Trips+whSt.Duplicates,
			"pass %d produced %d triplets, the warehouse took %d trips + %d duplicates", pass, produced, whSt.Trips, whSt.Duplicates)
		r.check("analytics-folds-warehouse", anSt.Trips == int64(whSt.Trips),
			"pass %d: analytics folded %d trips, the warehouse holds %d", pass, anSt.Trips, whSt.Trips)
		trips += whSt.Trips
		if lastDir != "" {
			os.RemoveAll(lastDir)
		}
		last, lastDir, lastTrips = results, dir, whSt.Trips
	}
	r.set("heap_live_peak_mb", heap.finish(r))
	passes := len(rates)
	fresh = fresh.sorted()
	r.set("throughput_per_s", rates.median())
	r.set("cpu_us_per_op", cpus.median())
	r.set("freshness_p50_ms", fresh.quantile(0.5))
	r.set("freshness_p99_ms", fresh.quantile(0.99))
	r.set("accuracy_f1", meanF1(finals(last), day.truths))
	r.logf("%d passes, records/s %v", passes, rates)
	r.logf("%s", describe("trip visibility from pass start", "ms", fresh, 0.99))

	if r.traced {
		spans := r.rec.snapshot()
		tees := byName(spans, "tripstore.IngestResult")
		folds := byName(spans, "analytics.IngestResult")
		setTraced(r, float64(r.failed)/float64(r.attempted))
		r.set("tripstore.append_us_p99", tees.sorted().quantile(0.99))
		r.set("analytics.fold_us_p99", folds.sorted().quantile(0.99))
		r.set("tripstore.ingest_result_us_per_trip", tees.sum()/float64(max(trips, 1)))
		r.set("analytics.ingest_result_us_per_trip", folds.sum()/float64(max(trips, 1)))
		probeLayers(r, day)
		zeroOnline(r)
		zero(r, "bench.gen_lag_p99_ms")
	}
	day, last = nil, nil
	return restartAndRead(r, lastDir, ins, lastTrips)
}
