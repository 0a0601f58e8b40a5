package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"trips/internal/analytics"
	"trips/internal/dsm"
	"trips/internal/semantics"
	"trips/internal/tripstore"
)

const (
	// queryLimit is the page size of the region, time and event queries,
	// the pagination a dashboard uses.
	queryLimit = 50
	// warmFor is how long the probe queries before it times anything: the
	// first query of each plan after a restart sorts its index (a one-off
	// cost of the restart), and on the 2-vCPU test host per-call times
	// settle only after about half a second of sustained querying.
	warmFor = time.Second
	// The read probe then runs rounds of roundQueries calls (1000
	// refreshes each) and reports medians over rounds, so one disturbed
	// round does not move them.
	roundQueries = 8000
)

// queryKind is one entry of the read probe's rotation.
type queryKind struct {
	name string // span name and per-layer metric stem
	run  func(rng *rand.Rand) (results, scanned int, err error)
}

// queryMixer is the read probe's fixed rotation: warehouse queries by device,
// region, time window and event, then the four analytics views — one
// dashboard refresh. The end-to-end query latency is a refresh's: the calls
// differ in cost by two orders of magnitude, so the median of single calls
// would fall between their modes and jump from run to run.
type queryMixer struct {
	kinds []queryKind
	lat   []samples // per call, by kind, µs
	// refresh accumulates the calls of the current rotation; round holds
	// the open round's completed rotations, µs.
	refresh float64
	round   samples
	// p50s and p99s are the closed rounds' percentiles.
	p50s, p99s samples
	// results and scanned sum the warehouse pages returned.
	results, scanned int
}

// newQueryMixer draws the queries' arguments from what the warehouse
// holds: its devices, its regions and the span of its trips' start times.
func newQueryMixer(wh *tripstore.Warehouse, an *analytics.Engine) (*queryMixer, error) {
	devices := wh.Devices()
	var regions []dsm.RegionID
	for _, id := range wh.Regions() {
		regions = append(regions, dsm.RegionID(id))
	}
	all, err := wh.Query(tripstore.QuerySpec{})
	if err != nil {
		return nil, err
	}
	if len(all.Trips) == 0 {
		return nil, fmt.Errorf("read probe: the warehouse is empty")
	}
	first, last := all.Trips[0].Triplet.From, all.Trips[len(all.Trips)-1].Triplet.From
	span := max(int64(last.Sub(first)), 1)
	at := func(rng *rand.Rand) time.Time { return first.Add(time.Duration(rng.Int63n(span))) }
	region := func(rng *rand.Rand) dsm.RegionID { return regions[rng.Intn(len(regions))] }
	page := func(p tripstore.Page, err error) (int, int, error) { return len(p.Trips), p.Scanned, err }
	kinds := []queryKind{
		{"tripstore.query_device", func(rng *rand.Rand) (int, int, error) {
			return page(wh.Query(tripstore.QuerySpec{Device: devices[rng.Intn(len(devices))]}))
		}},
		{"tripstore.query_region", func(rng *rand.Rand) (int, int, error) {
			return page(wh.Query(tripstore.QuerySpec{RegionID: region(rng), Limit: queryLimit}))
		}},
		{"tripstore.query_time", func(rng *rand.Rand) (int, int, error) {
			since := at(rng)
			return page(wh.Query(tripstore.QuerySpec{Since: since, Until: since.Add(15 * time.Minute), Limit: queryLimit}))
		}},
		{"tripstore.query_event", func(rng *rand.Rand) (int, int, error) {
			since := at(rng)
			ev := semantics.EventStay
			if rng.Intn(2) == 0 {
				ev = semantics.EventPassBy
			}
			return page(wh.Query(tripstore.QuerySpec{Event: ev, Since: since, Until: since.Add(time.Hour), Limit: queryLimit}))
		}},
		{"analytics.occupancy", func(*rand.Rand) (int, int, error) {
			return len(an.Occupancy(5 * time.Minute)), 0, nil
		}},
		{"analytics.topk", func(*rand.Rand) (int, int, error) {
			return len(an.TopK(5, 15*time.Minute)), 0, nil
		}},
		{"analytics.flows", func(rng *rand.Rand) (int, int, error) {
			return len(an.Flows(region(rng), 10)), 0, nil
		}},
		{"analytics.dwell", func(rng *rand.Rand) (int, int, error) {
			if _, ok := an.Dwell(region(rng)); ok {
				return 1, 0, nil
			}
			return 0, 0, nil
		}},
	}
	return &queryMixer{kinds: kinds, lat: make([]samples, len(kinds))}, nil
}

// do runs the i-th query of the rotation and records its latency.
func (q *queryMixer) do(r *run, rng *rand.Rand, i int) error {
	k := i % len(q.kinds)
	sp := r.rec.start(q.kinds[k].name, 0)
	start := time.Now()
	n, scanned, err := q.kinds[k].run(rng)
	us := float64(time.Since(start)) / 1e3
	sp.end()
	q.lat[k] = append(q.lat[k], us)
	q.refresh += us
	if k == len(q.kinds)-1 {
		q.round = append(q.round, q.refresh)
		q.refresh = 0
	}
	if err != nil {
		return fmt.Errorf("%s: %w", q.kinds[k].name, err)
	}
	q.results += n
	q.scanned += scanned
	return nil
}

// warm queries for warmFor and forgets them.
func (q *queryMixer) warm(rng *rand.Rand) error {
	for i, until := 0, time.Now().Add(warmFor); time.Now().Before(until); i++ {
		if _, _, err := q.kinds[i%len(q.kinds)].run(rng); err != nil {
			return fmt.Errorf("%s: %w", q.kinds[i%len(q.kinds)].name, err)
		}
	}
	return nil
}

// closeRound records the open round's percentiles.
func (q *queryMixer) closeRound() {
	if len(q.round) == 0 {
		return
	}
	s := q.round.sorted()
	q.p50s = append(q.p50s, s.quantile(0.5))
	q.p99s = append(q.p99s, s.quantile(0.99))
	q.round = q.round[:0]
}

// report sets the refresh latency percentiles (medians over rounds), the
// per-kind latencies and the warehouse's scan ratio.
func (q *queryMixer) report(r *run) {
	q.closeRound()
	var all samples
	for _, l := range q.lat {
		all = append(all, l...)
	}
	r.logf("%s", describe("query latency", "us", all.sorted(), 0.99))
	r.logf("query rounds: p50 %.4g, p99 %.4g us", q.p50s, q.p99s)
	r.set("bench.query_refresh_us_p50", q.p50s.median())
	r.set("bench.query_refresh_us_p99", q.p99s.median())
	for k, kind := range q.kinds {
		l := q.lat[k].sorted()
		r.set(kind.name+"_us_p50", l.quantile(0.5))
		r.set(kind.name+"_us_p99", l.quantile(0.99))
	}
	r.set("tripstore.scanned_per_result", float64(q.scanned)/float64(max(q.results, 1)))
}

// probeReads runs the read probe over a workload's restarted warehouse and
// views: one closed-loop reader, one call at a time.
func probeReads(r *run, wh *tripstore.Warehouse, an *analytics.Engine, rounds int) error {
	q, err := newQueryMixer(wh, an)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	if err := q.warm(rng); err != nil {
		return err
	}
	runtime.GC()
	for i := 0; i < rounds*roundQueries; i++ {
		if err := q.do(r, rng, i); err != nil {
			return err
		}
		if (i+1)%roundQueries == 0 {
			q.closeRound()
		}
	}
	q.report(r)
	return nil
}
