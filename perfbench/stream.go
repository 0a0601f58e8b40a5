package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"trips/internal/analytics"
	"trips/internal/online"
	"trips/internal/position"
	"trips/internal/semantics"
	"trips/internal/tripstore"
)

// The paced stream's offered load. 30 k records/s in 32-record batches
// keeps the default engine (shards = min(NumCPU, 8), 1024-record inboxes,
// 64-record / 500 ms flushes) at roughly a third of its flat-out rate on a
// 2-CPU host, so refusals come from ticker-flush stalls rather than from
// overload; README.md records the capacity measurement behind the choice.
const (
	streamRate  = 30000
	streamBatch = 32
	// retryBackoff is how long the sender waits before resending the
	// records of a refused batch: about one batch interval. The server's
	// Retry-After of 1 s is sized for many independent clients; the single
	// open-loop sender here would fall 30 k records behind its schedule.
	retryBackoff = time.Millisecond
	// refusalLimit ends the run when the engine keeps refusing one batch:
	// a stalled engine, not a flush.
	refusalLimit = 10 * time.Second
	// drainWait lets the flush ticker (500 ms by default) seal what the
	// last records made sealable before Close seals the rest.
	drainWait = time.Second
)

// emitted is one triplet the engine emitted, as seen after both tees.
type emitted struct {
	dev     position.DeviceID
	seq     int
	trip    semantics.Triplet
	at      time.Duration // since the stream started
	atClose bool
}

// probeEmitter is the last emitter of the chain: it stamps each emission
// once the warehouse and analytics tees have both handled it.
type probeEmitter struct {
	t0      time.Time
	closing atomic.Bool
	mu      sync.Mutex
	out     []emitted
}

func (p *probeEmitter) Emit(e online.Emission) {
	at := time.Since(p.t0)
	closing := p.closing.Load()
	p.mu.Lock()
	p.out = append(p.out, emitted{dev: e.Device, seq: e.Seq, trip: e.Triplet, at: at, atClose: closing})
	p.mu.Unlock()
}

// spanEmitter records a span around the next emitter's Emit. Tee calls for
// one device are serialized on its shard, so the innermost open span per
// device is the parent of the next span opened for it.
type spanEmitter struct {
	r     *run
	name  string
	next  online.Emitter
	open  *sync.Map // device → id of its open outer span
	outer bool
}

func (s spanEmitter) Emit(e online.Emission) {
	var parent int64
	if !s.outer {
		if v, ok := s.open.Load(e.Device); ok {
			parent = v.(int64)
		}
	}
	sp := s.r.rec.start(s.name, parent)
	if s.outer {
		s.open.Store(e.Device, sp.id)
	}
	s.next.Emit(e)
	sp.end()
}

func (s spanEmitter) FinalizeSession(dev position.DeviceID, at time.Time) {
	if f, ok := s.next.(online.SessionFinalizer); ok {
		f.FinalizeSession(dev, at)
	}
}

func (s spanEmitter) Close() error {
	if c, ok := s.next.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// streamRig is the stream-paced set-up: the day, its feed, and the
// engine → warehouse → analytics chain trips-server runs.
type streamRig struct {
	day   *venueDay
	feed  *feed
	ins   instruments
	dir   string
	wh    *tripstore.Warehouse
	an    *analytics.Engine
	eng   *online.Engine
	probe *probeEmitter
}

func (g *streamRig) close() {
	if g.eng != nil {
		g.eng.Close()
	}
	if g.wh != nil {
		g.wh.Close()
	}
}

func newStreamRig(r *run, attempt int) (*streamRig, error) {
	day, err := newVenueDay(r.seed, shoppersFor(r.seconds))
	if err != nil {
		return nil, err
	}
	f, err := buildFeed(day.ds, r.seed, streamBatch)
	if err != nil {
		return nil, err
	}
	g := &streamRig{day: day, feed: f, ins: newInstruments(), probe: &probeEmitter{},
		dir: filepath.Join(r.dir, fmt.Sprintf("stream-%d", attempt))}
	if g.wh, err = openWarehouse(g.dir, g.ins); err != nil {
		return nil, err
	}
	g.an = analytics.New(analytics.Config{Metrics: g.ins.analytics})
	var sink online.Emitter = g.wh.Emitter(g.an.Emitter(g.probe))
	if r.traced {
		open := new(sync.Map)
		sink = spanEmitter{r: r, name: "tripstore.Emit", outer: true, open: open,
			next: g.wh.Emitter(spanEmitter{r: r, name: "analytics.Emit", open: open, next: g.an.Emitter(g.probe)})}
	}
	// trips-server's engine configuration: everything at its default but
	// the emitter chain and the metric bundle.
	g.eng, err = day.env.Trans.NewOnline(online.Config{Emitter: sink, Metrics: g.ins.online})
	if err != nil {
		g.wh.Close()
		return nil, err
	}
	return g, nil
}

// streamPaced replays the venue day through position.StreamJSONL →
// online.Engine.TryIngest on a fixed schedule.
func streamPaced(r *run) error {
	attempt := 0
	g, err := timeSetup(r, func() (*streamRig, error) {
		attempt++
		return newStreamRig(r, attempt)
	}, func(g *streamRig) { g.close() })
	if err != nil {
		return err
	}
	defer g.close()
	f := g.feed
	sched := schedule{batchSize: streamBatch, rate: streamRate}
	r.logf("day: %d shoppers, %d records, %d redeliveries, %d batches at %d records/s",
		g.day.ds.NumDevices(), f.distinct, f.duplicates, len(f.batches), streamRate)

	var (
		lags, ops samples
		refused   int64
		parsed    int64
		sent      time.Duration
		depthMax  atomic.Int64
	)
	if r.traced {
		defer sampleShardDepth(g.eng, &depthMax)()
	}

	heap := startHeapSampler()
	cpu0 := cpuTime()
	t0 := time.Now()
	g.probe.t0 = t0
	for i, batch := range f.batches {
		due := sched.due(i)
		if wait := due - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		lags = append(lags, float64(time.Since(t0)-due)/1e6)
		// One operation delivers one batch. A refusal is the server's 429:
		// the sender retries it, so it delays the batch (freshness shows
		// that) and counts as a refused attempt, not as a failed batch.
		r.attempted++
		bsp := r.rec.start("bench.batch", 0)
		rest := batch
		var refusedSince time.Time
		for {
			sp := r.rec.start("position.StreamJSONL", bsp.id)
			ingest := g.eng.TryIngest
			if r.traced {
				ingest = func(rec position.Record) error {
					isp := r.rec.start("online.TryIngest", sp.id)
					err := g.eng.TryIngest(rec)
					isp.end()
					return err
				}
			}
			n, err := position.StreamJSONL(bytes.NewReader(rest), ingest)
			sp.end()
			parsed += int64(n)
			if err == nil {
				break
			}
			if !errors.Is(err, online.ErrBacklogged) {
				bsp.end()
				return fmt.Errorf("ingest batch %d: %w", i, err)
			}
			if refusedSince.IsZero() {
				refusedSince = time.Now()
			} else if time.Since(refusedSince) > refusalLimit {
				bsp.end()
				return fmt.Errorf("ingest batch %d: refused for %v: %w", i, refusalLimit, err)
			}
			refused++
			parsed++
			rest = skipLines(rest, n)
			time.Sleep(retryBackoff)
		}
		bsp.end()
		ops = append(ops, float64(time.Since(t0)-due)/1e3)
	}
	sent = time.Since(t0)
	time.Sleep(drainWait)
	// The engine's state, the warehouse and the views grow until the
	// feed ends, but the last natural collection can be seconds old:
	// collect so the heap sampler sees the state before Close frees it.
	runtime.GC()
	g.probe.closing.Store(true)
	g.eng.Close()
	cpu := cpuTime() - cpu0
	r.set("heap_live_peak_mb", heap.finish(r))

	st := g.eng.Stats()
	whSt := g.wh.Stats()
	anSt := g.an.Stats()
	emits := g.probe.out
	// Every batch was accepted, after retries, by the loop above. Records
	// the engine drops as late are the feed's reordering meeting the
	// admission floor (README.md, open item 3): reported, not gated, like
	// the online/batch difference.
	r.check("all-accounted", st.RecordsIn+st.Duplicates+st.Late == int64(len(f.deliveries)) &&
		st.RecordsIn <= int64(f.distinct),
		"engine admitted %d records, collapsed %d duplicates, dropped %d late; the feed carried %d records and %d redeliveries",
		st.RecordsIn, st.Duplicates, st.Late, f.distinct, f.duplicates)
	r.check("emissions-warehoused", len(emits) == whSt.Trips+whSt.Duplicates,
		"%d emissions, warehouse holds %d trips + %d duplicates", len(emits), whSt.Trips, whSt.Duplicates)
	r.check("analytics-folds-warehouse", anSt.Trips == int64(whSt.Trips) && anSt.OutOfOrder == int64(whSt.Duplicates),
		"analytics folded %d trips (%d skipped), warehouse holds %d trips (%d duplicates)",
		anSt.Trips, anSt.OutOfOrder, whSt.Trips, whSt.Duplicates)

	// Freshness: emission after both tees, measured from the scheduled
	// send of the record whose arrival made the triplet sealable.
	horizon := g.eng.Horizon()
	var fresh samples
	var atClose, unsealable, inferred, early int
	live := make(map[position.DeviceID]*semantics.Sequence)
	for _, e := range emits {
		s := live[e.dev]
		if s == nil {
			s = semantics.NewSequence(string(e.dev))
			live[e.dev] = s
		}
		s.Append(e.trip)
		switch {
		case e.atClose:
			atClose++
			continue
		case e.trip.Inferred:
			inferred++
			continue
		}
		k, ok := f.sealingDelivery(e.dev, e.trip.To.Add(horizon))
		if !ok {
			unsealable++
			continue
		}
		d := e.at - sched.due(f.deliveries[k].batch)
		if d < 0 {
			early++
		}
		fresh = append(fresh, float64(d)/1e6)
	}
	r.check("freshness-causal", early == 0 && unsealable == 0,
		"%d triplets emitted before their sealing record was due, %d emitted before close without one", early, unsealable)
	fresh = fresh.sorted()
	r.set("freshness_p50_ms", fresh.quantile(0.5))
	r.set("freshness_p99_ms", fresh.quantile(0.99))
	ops = ops.sorted()
	deliveries := float64(len(f.deliveries))
	r.set("throughput_per_s", deliveries/sent.Seconds())
	r.set("cpu_us_per_op", float64(cpu)/1e3/float64(f.distinct))
	r.set("accuracy_f1", meanF1(live, g.day.truths))
	lags = lags.sorted()
	r.logf("%s", describe("freshness", "ms", fresh, 0.99))
	r.logf("sealed at close (not sampled): %d, inferred (not sampled): %d", atClose, inferred)
	r.logf("%s", describe("ingest batch latency from due time", "us", ops, 0.99))
	r.logf("%s", describe("generator lag", "ms", lags, 0.99))
	r.logf("refused batch attempts: %d of %d (%d batches)", refused, r.attempted+refused, len(f.batches))
	r.logf("records dropped as late: %d of %d deliveries", st.Late, len(f.deliveries))

	if r.traced {
		spans := r.rec.snapshot()
		setTraced(r, float64(refused)/float64(r.attempted+refused))
		r.set("bench.gen_lag_p99_ms", lags.quantile(0.99))
		parse := byName(spans, "position.StreamJSONL").sum()
		ingest := byName(spans, "online.TryIngest")
		r.set("position.parse_ns_per_record", 1e3*(parse-ingest.sum())/float64(max(parsed, 1)))
		r.set("online.ingest_ns_per_record", 1e3*ingest.mean())
		m := g.ins.online
		for _, h := range []struct {
			name string
			sum  time.Duration
			n    int64
			p99  time.Duration
		}{
			{"clean", m.CleanSeconds.Sum(), m.CleanSeconds.Count(), m.CleanSeconds.Quantile(0.99)},
			{"annotate", m.AnnotateSeconds.Sum(), m.AnnotateSeconds.Count(), m.AnnotateSeconds.Quantile(0.99)},
			{"seal", m.SealSeconds.Sum(), m.SealSeconds.Count(), m.SealSeconds.Quantile(0.99)},
		} {
			r.set("online.flush_"+h.name+"_ms_mean", float64(h.sum)/1e6/float64(max(h.n, 1)))
			r.set("online.flush_"+h.name+"_ms_p99", float64(h.p99)/1e6)
		}
		r.set("online.flushes", float64(st.Flushes))
		r.set("online.incremental_ratio", float64(st.IncrementalFlushes)/float64(max(st.Flushes, 1)))
		r.set("online.shard_depth_max", float64(depthMax.Load()))
		r.set("online.refused_batches", float64(refused))
		r.set("online.late_records", float64(st.Late))
		r.set("online.sealed_at_close", float64(atClose))
		tees := byName(spans, "tripstore.Emit")
		r.set("tripstore.append_us_p99", teeSelf(spans, "tripstore.Emit").sorted().quantile(0.99))
		r.set("analytics.fold_us_p99", byName(spans, "analytics.Emit").sorted().quantile(0.99))
		// The engine's flush work runs on its shard goroutines, out of the
		// benchmark's reach: online self time adds the flush stages (which
		// include the cleaning, annotation and complementing the engine
		// runs) less the tee time the seal stage contains.
		flush := m.CleanSeconds.Sum() + m.AnnotateSeconds.Sum() + m.SealSeconds.Sum()
		r.set("online.self_ms", float64(selfTimes(spans)["online"]+flush)/1e6-tees.sum()/1e3)
		diff := symmetricDiff(live, finals(probeLayers(r, g.day)))
		r.set("online.batch_diff_triplets", float64(diff))
		r.logf("online/batch symmetric difference: %d triplets", diff)
		zero(r, "tripstore.ingest_result_us_per_trip", "analytics.ingest_result_us_per_trip")
	}

	if err := g.wh.Close(); err != nil {
		return err
	}
	ins, dir := g.ins, g.dir
	g.day, g.feed, g.probe, g.wh = nil, nil, nil, nil
	return restartAndRead(r, dir, ins, whSt.Trips)
}

// sampleShardDepth records the deepest shard inbox seen every 5 ms until
// the returned stop function is called; stop waits for the sampler.
func sampleShardDepth(eng *online.Engine, depthMax *atomic.Int64) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			for _, d := range eng.Stats().ShardDepth {
				if int64(d) > depthMax.Load() {
					depthMax.Store(int64(d))
				}
			}
			select {
			case <-quit:
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// skipLines drops the first n lines of a JSONL batch.
func skipLines(b []byte, n int) []byte {
	for ; n > 0; n-- {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return nil
		}
		b = b[i+1:]
	}
	return b
}

// teeSelf returns the self time, in µs, of every span with the given name:
// its duration less its direct children's.
func teeSelf(spans []span, name string) samples {
	child := make(map[int64]int64)
	for _, s := range spans {
		if s.parent != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out samples
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start-child[s.id])/1e3)
		}
	}
	return out
}

// setStorageSelf reports the durable log's write time as the storage
// layer's self time: segment writes run inside tripstore calls, so they
// come off tripstore's span self time.
func setStorageSelf(r *run, spans []span, ins instruments) {
	storage := ins.store.SegmentWriteSeconds.Sum() + ins.store.SnapshotWriteSeconds.Sum()
	r.set("storage.self_ms", float64(storage)/1e6)
	r.set("tripstore.self_ms", float64(selfTimes(spans)["tripstore"]-storage)/1e6)
}
