package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"trips/internal/analytics"
	"trips/internal/complement"
	"trips/internal/core"
	"trips/internal/dsm"
	"trips/internal/obs"
	"trips/internal/online"
	"trips/internal/position"
	"trips/internal/semantics"
	"trips/internal/simul"
	"trips/internal/storage"
	"trips/internal/tripstore"
)

// instruments are the per-layer metric bundles trips-server hands its
// subsystems by default; the benchmark runs the same configuration, and the
// traced run reads the online flush-stage histograms back.
type instruments struct {
	online    *online.Metrics
	store     *tripstore.Metrics
	analytics *analytics.Metrics
}

func newInstruments() instruments {
	reg := obs.NewRegistry()
	return instruments{
		online:    online.NewMetrics(reg),
		store:     tripstore.NewMetrics(reg),
		analytics: analytics.NewMetrics(reg),
	}
}

// openWarehouse opens (or reopens) the durable warehouse in dir, replaying
// whatever its segment log holds.
func openWarehouse(dir string, ins instruments) (*tripstore.Warehouse, error) {
	st, err := storage.Open(dir)
	if err != nil {
		return nil, err
	}
	wh, err := tripstore.New(tripstore.Options{Log: &tripstore.LogOptions{Store: st}, Metrics: ins.store})
	if err != nil {
		return nil, fmt.Errorf("open warehouse %s: %w", dir, err)
	}
	return wh, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// meanF1 is the mean triplet F1 of got against the simulator's truth over
// every simulated device; a device with no output scores 0.
func meanF1(got map[position.DeviceID]*semantics.Sequence, truths map[position.DeviceID]simul.Truth) float64 {
	devs := make([]position.DeviceID, 0, len(truths))
	for dev := range truths {
		devs = append(devs, dev)
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	var sum float64
	for _, dev := range devs {
		g := got[dev]
		if g == nil {
			g = semantics.NewSequence(string(dev))
		}
		sum += semantics.Compare(g, truths[dev].Semantics, 5*time.Second).F1
	}
	return sum / float64(max(len(devs), 1))
}

// finals indexes batch results by device.
func finals(results []core.Result) map[position.DeviceID]*semantics.Sequence {
	out := make(map[position.DeviceID]*semantics.Sequence, len(results))
	for _, res := range results {
		out[res.Device] = res.Final
	}
	return out
}

// tripKey is a triplet's identity for output comparisons: what it says,
// not which records it came from.
type tripKey struct {
	dev      position.DeviceID
	event    semantics.Event
	region   string
	regionID dsm.RegionID
	from, to int64
	inferred bool
}

func keyOf(dev position.DeviceID, t semantics.Triplet) tripKey {
	return tripKey{dev, t.Event, t.Region, t.RegionID, t.From.UnixNano(), t.To.UnixNano(), t.Inferred}
}

// symmetricDiff counts the triplets in exactly one of a and b.
func symmetricDiff(a, b map[position.DeviceID]*semantics.Sequence) int {
	count := make(map[tripKey]int)
	for _, side := range []struct {
		m map[position.DeviceID]*semantics.Sequence
		d int
	}{{a, 1}, {b, -1}} {
		for dev, s := range side.m {
			for _, t := range s.Triplets {
				count[keyOf(dev, t)] += side.d
			}
		}
	}
	n := 0
	for _, c := range count {
		n += max(c, -c)
	}
	return n
}

// layeredTranslate is Translator.Translate with a span around every call
// into a layer: cleaning and annotation per device on workers goroutines
// (phase one), then one knowledge build and a complement per device (phase
// two). It is the traced run's view of the translation layers;
// probeLayers checks it against Translator.Translate.
func layeredTranslate(r *run, parent int64, t *core.Translator, ds *position.Dataset, workers int) []core.Result {
	seqs := ds.Sequences()
	results := make([]core.Result, len(seqs))
	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				s := seqs[i]
				res := core.Result{Device: s.Device, Raw: s}
				sp := r.rec.start("cleaning.Clean", parent)
				res.Cleaned, res.Clean = t.Cleaner.Clean(s)
				sp.end()
				sp = r.rec.start("annotation.Annotate", parent)
				res.Original = t.Annotator.Annotate(res.Cleaned)
				sp.end()
				results[i] = res
			}
		}()
	}
	for i := range seqs {
		work <- i
	}
	close(work)
	wg.Wait()

	var know *complement.Knowledge
	if t.Complementor != nil {
		all := make([]*semantics.Sequence, len(results))
		for i := range results {
			all[i] = results[i].Original
		}
		sp := r.rec.start("complement.BuildKnowledge", parent)
		know = complement.BuildKnowledge(t.Model, all, t.KnowledgeJoinGap)
		sp.end()
	}
	for i := range results {
		res := &results[i]
		res.Final = res.Original
		if t.Complementor != nil {
			comp := *t.Complementor
			comp.Know = know
			sp := r.rec.start("complement.Complement", parent)
			res.Final, res.Inserted = comp.Complement(res.Original)
			sp.end()
		}
	}
	return results
}

// sameFinals reports the first device whose final sequence differs
// between two translations of the same dataset.
func sameFinals(a, b []core.Result) (position.DeviceID, bool) {
	if len(a) != len(b) {
		return "", false
	}
	for i := range a {
		x, y := a[i].Final, b[i].Final
		if a[i].Device != b[i].Device || x.Len() != y.Len() {
			return a[i].Device, false
		}
		for j := range x.Triplets {
			if keyOf("", x.Triplets[j]) != keyOf("", y.Triplets[j]) {
				return a[i].Device, false
			}
		}
	}
	return "", true
}

// probeLayers measures the translation layers over the workload's records
// with a span around each call: dsm geometry (Locate on every record,
// WalkingDistance between consecutive records), a layered translation
// (cleaning, annotation, complement) and the single-threaded Translator
// baseline. Every traced run calls it, so the layer costs of the day's
// data are reported on each workload. It returns the layered results.
func probeLayers(r *run, day *venueDay) []core.Result {
	probe := r.rec.start("bench.layer_probe", 0)
	m := day.env.Model
	var locates, walks int
	for _, s := range day.ds.Sequences() {
		sp := r.rec.start("dsm.Locate", probe.id)
		for _, rec := range s.Records {
			m.Locate(rec.P, rec.Floor)
		}
		sp.end()
		locates += s.Len()
		sp = r.rec.start("dsm.WalkingDistance", probe.id)
		for i := 1; i < s.Len(); i++ {
			m.WalkingDistance(s.Records[i-1].Location(), s.Records[i].Location())
		}
		sp.end()
		walks += max(s.Len()-1, 0)
	}
	spans := under(r.rec.snapshot(), probe.id)
	r.set("dsm.locate_ns", 1e3*byName(spans, "dsm.Locate").sum()/float64(max(locates, 1)))
	r.set("dsm.walking_distance_ns", 1e3*byName(spans, "dsm.WalkingDistance").sum()/float64(max(walks, 1)))

	tr := day.env.Trans
	results := layeredTranslate(r, probe.id, tr, day.ds, workersOf(tr))
	spans = under(r.rec.snapshot(), probe.id)
	var repaired, original, finalN, inserted int
	for _, res := range results {
		repaired += res.Clean.Modified()
		original += res.Original.Len()
		finalN += res.Final.Len()
		inserted += res.Inserted
	}
	n := float64(max(day.records, 1))
	r.set("cleaning.clean_us_per_record", byName(spans, "cleaning.Clean").sum()/n)
	r.set("cleaning.repair_ratio", float64(repaired)/n)
	r.set("annotation.annotate_us_per_record", byName(spans, "annotation.Annotate").sum()/n)
	r.set("annotation.triplets_per_krecord", 1e3*float64(original)/n)
	r.set("complement.knowledge_ms", byName(spans, "complement.BuildKnowledge").sum()/1e3)
	r.set("complement.complement_us_per_seq", byName(spans, "complement.Complement").sum()/float64(max(len(results), 1)))
	r.set("complement.inserted_ratio", float64(inserted)/float64(max(finalN, 1)))

	one := *tr
	one.Workers = 1
	sp := r.rec.start("core.Translate", probe.id)
	base := one.Translate(day.ds)
	d := sp.end()
	r.set("core.translate_1cpu_records_per_s", n/d.Seconds())
	dev, ok := sameFinals(results, base)
	r.check("layered-translate-matches", ok, "the span-wrapped translation differs from Translator.Translate for %s", dev)
	probe.end()
	return results
}

// workersOf is the Translator's phase-one concurrency.
func workersOf(t *core.Translator) int {
	if t.Workers > 0 {
		return t.Workers
	}
	return runtime.NumCPU()
}

// setTraced reports the traced run's own end-to-end figures, whose
// difference from the untraced run's is the tracing overhead, and the
// share of its attempts that were refused or failed.
func setTraced(r *run, failedRatio float64) {
	r.set("bench.traced_cpu_us_per_op", r.values["cpu_us_per_op"])
	r.set("bench.traced_throughput_per_s", r.values["throughput_per_s"])
	r.set("bench.failed_ratio", failedRatio)
}

// zeroOnline zeroes the metrics of the live path for workloads that do
// not run it.
func zeroOnline(r *run) {
	zero(r, "position.parse_ns_per_record", "online.ingest_ns_per_record",
		"online.flush_clean_ms_mean", "online.flush_clean_ms_p99",
		"online.flush_annotate_ms_mean", "online.flush_annotate_ms_p99",
		"online.flush_seal_ms_mean", "online.flush_seal_ms_p99",
		"online.flushes", "online.incremental_ratio", "online.shard_depth_max",
		"online.refused_batches", "online.late_records", "online.batch_diff_triplets", "online.sealed_at_close")
}

// zero reports metrics of layers the workload does not run.
func zero(r *run, names ...string) {
	for _, n := range names {
		r.set(n, 0)
	}
}

// setSelfTimes reports every layer's span self time.
func setSelfTimes(r *run) {
	self := selfTimes(r.rec.snapshot())
	for _, l := range []string{"position", "online", "cleaning", "annotation", "complement", "dsm",
		"tripstore", "storage", "analytics", "core", "bench"} {
		if _, ok := r.values[l+".self_ms"]; !ok {
			r.set(l+".self_ms", float64(self[l])/1e6)
		}
	}
}
