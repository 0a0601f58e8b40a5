package main

import (
	"runtime"
	"time"

	"trips/internal/analytics"
	"trips/internal/tripstore"
)

// After its measured phase every run restarts the workload's closed
// warehouse once and checks what the restart serves. The traced run
// restarts it tracedRestarts times and reads tracedRounds rounds from the
// last restart, in process and with spans; restart and read timings are
// per-layer figures (README.md says why they carry no bound).
const (
	tracedRestarts = 15
	tracedRounds   = 15
)

// restartTimes is one restart of the durable warehouse: reopen (segment
// replay) then an analytics bootstrap from it, as trips-server boots.
type restartTimes struct{ replay, bootstrap time.Duration }

// restart reopens the warehouse in dir and bootstraps fresh analytics
// views from it.
func restart(r *run, dir string, ins instruments) (*tripstore.Warehouse, *analytics.Engine, restartTimes, error) {
	var t restartTimes
	sp := r.rec.start("tripstore.New", 0)
	start := time.Now()
	wh, err := openWarehouse(dir, ins)
	t.replay = time.Since(start)
	sp.end()
	if err != nil {
		return nil, nil, t, err
	}
	sp = r.rec.start("analytics.Bootstrap", 0)
	start = time.Now()
	an := analytics.New(analytics.Config{Metrics: ins.analytics})
	err = an.Bootstrap(wh)
	t.bootstrap = time.Since(start)
	sp.end()
	if err != nil {
		wh.Close()
		return nil, nil, t, err
	}
	return wh, an, t, nil
}

// measureRestarts restarts the closed warehouse in dir n times, records
// the median restart and its replay/bootstrap split, and checks that every
// restart serves the trips the live warehouse held. The last restart stays
// open for the caller.
func measureRestarts(r *run, dir string, ins instruments, liveTrips, n int) (*tripstore.Warehouse, *analytics.Engine, error) {
	var total, replay, boot samples
	var wh *tripstore.Warehouse
	var an *analytics.Engine
	for i := 0; i < n; i++ {
		if wh != nil {
			if err := wh.Close(); err != nil {
				return nil, nil, err
			}
			wh, an = nil, nil
		}
		runtime.GC() // every restart starts with the previous one collected
		var t restartTimes
		var err error
		wh, an, t, err = restart(r, dir, ins)
		if err != nil {
			return nil, nil, err
		}
		total = append(total, (t.replay + t.bootstrap).Seconds())
		replay = append(replay, float64(t.replay)/1e6)
		boot = append(boot, float64(t.bootstrap)/1e6)
		got := wh.Stats().Trips
		r.check("reopen-trip-count", got == liveTrips, "restart %d serves %d trips, the live warehouse held %d", i, got, liveTrips)
		r.check("bootstrap-folds-warehouse", an.Stats().Trips == int64(got),
			"bootstrap folded %d trips of the warehouse's %d", an.Stats().Trips, got)
	}
	r.set("bench.restart_s", total.median())
	r.set("tripstore.replay_ms", replay.median())
	r.set("analytics.bootstrap_ms", boot.median())
	r.set("storage.segments", float64(wh.Stats().Segments))
	bytes, err := dirBytes(dir)
	if err != nil {
		return nil, nil, err
	}
	r.set("storage.bytes_per_trip", float64(bytes)/float64(max(liveTrips, 1)))
	r.logf("restart samples %v (trips=%d, %d bytes on disk)", total, liveTrips, bytes)
	r.logf("replay %.3g boot %.3g", replay, boot)
	return wh, an, nil
}

// restartAndRead closes out a workload over its closed warehouse in dir,
// which held liveTrips trips. The caller drops its own inputs first, so the
// collector's work here is the program's, not the benchmark's bookkeeping.
func restartAndRead(r *run, dir string, ins instruments, liveTrips int) error {
	n := 1
	if r.traced {
		n = tracedRestarts
	}
	wh, an, err := measureRestarts(r, dir, ins, liveTrips, n)
	if err != nil {
		return err
	}
	defer wh.Close()
	if !r.traced {
		return nil
	}
	if err := probeReads(r, wh, an, tracedRounds); err != nil {
		return err
	}
	setStorageSelf(r, r.rec.snapshot(), ins)
	setSelfTimes(r)
	return nil
}
