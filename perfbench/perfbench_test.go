package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"trips/internal/dsm"
	"trips/internal/geom"
	"trips/internal/position"
)

// smallDay is a venue day small enough for unit tests.
func smallDay(t *testing.T, seed int64) *venueDay {
	t.Helper()
	day, err := newVenueDay(seed, 12)
	if err != nil {
		t.Fatal(err)
	}
	return day
}

func TestSameSeedSameInputs(t *testing.T) {
	a, err := buildFeed(smallDay(t, 7).ds, 7, streamBatch)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildFeed(smallDay(t, 7).ds, 7, streamBatch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.Join(a.batches, nil), bytes.Join(b.batches, nil)) {
		t.Fatal("the same seed produced different feeds")
	}
	c, err := buildFeed(smallDay(t, 8).ds, 8, streamBatch)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(bytes.Join(a.batches, nil), bytes.Join(c.batches, nil)) {
		t.Fatal("different seeds produced the same feed")
	}
}

func TestFeedRoundTripsAndBatches(t *testing.T) {
	day := smallDay(t, 3)
	f, err := buildFeed(day.ds, 3, streamBatch)
	if err != nil {
		t.Fatal(err)
	}
	if f.distinct != day.records || f.duplicates == 0 {
		t.Fatalf("feed has %d records and %d redeliveries for a day of %d records", f.distinct, f.duplicates, day.records)
	}
	if want := (len(f.deliveries) + streamBatch - 1) / streamBatch; len(f.batches) != want {
		t.Fatalf("%d batches for %d deliveries, want %d", len(f.batches), len(f.deliveries), want)
	}
	var parsed []position.Record
	for i, b := range f.batches {
		n, err := position.StreamJSONL(bytes.NewReader(b), func(r position.Record) error {
			parsed = append(parsed, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if i < len(f.batches)-1 && n != streamBatch {
			t.Fatalf("batch %d carries %d records, want %d", i, n, streamBatch)
		}
	}
	for i, d := range f.deliveries {
		if d.batch != i/streamBatch {
			t.Fatalf("delivery %d is in batch %d, want %d", i, d.batch, i/streamBatch)
		}
		p := parsed[i]
		if p.Device != d.rec.Device || p.P != d.rec.P || p.Floor != d.rec.Floor || !p.At.Equal(d.rec.At) {
			t.Fatalf("delivery %d parses back as %v, sent %v", i, p, d.rec)
		}
	}
}

// TestShapeDevice checks trips-load's per-device shape: every record
// stays in its shuffle window, some records move, and every
// duplicateEvery-th record, counting back from the last, comes again
// duplicateLag positions after it.
func TestShapeDevice(t *testing.T) {
	t0 := time.Date(2017, 1, 1, 10, 0, 0, 0, time.UTC)
	var recs []position.Record
	for i := 0; i < 200; i++ {
		recs = append(recs, position.Record{Device: "a", At: t0.Add(time.Duration(i) * time.Second)})
	}
	sched := shapeDevice(recs, lcg(1))
	dups := (len(recs) + duplicateEvery - 1) / duplicateEvery
	if len(sched) != len(recs)+dups {
		t.Fatalf("%d deliveries, want %d", len(sched), len(recs)+dups)
	}
	var firsts []int // original index of each first delivery, in order
	seen := map[time.Time]int{}
	for pos, r := range sched {
		i := int(r.At.Sub(t0) / time.Second)
		if first, again := seen[r.At]; again {
			dups--
			if pos <= first {
				t.Fatalf("record %d is redelivered at %d, before its delivery at %d", i, pos, first)
			}
			continue
		}
		seen[r.At] = pos
		firsts = append(firsts, i)
	}
	if dups != 0 || len(firsts) != len(recs) {
		t.Fatalf("%d distinct records and %d redeliveries unaccounted for", len(firsts), dups)
	}
	moved := false
	for k, i := range firsts {
		if k/shuffleWindow != i/shuffleWindow {
			t.Fatalf("record %d left its shuffle window for position %d", i, k)
		}
		moved = moved || k != i
	}
	if !moved {
		t.Fatal("the shuffle displaced nothing")
	}
}

// TestShapeFeedKeepsDeviceStreams checks the merge: each device's
// deliveries come in its shaped order, and the merged feed reorders some
// device's own records.
func TestShapeFeedKeepsDeviceStreams(t *testing.T) {
	day := smallDay(t, 5)
	next := lcg(5)
	want := map[position.DeviceID][]position.Record{}
	for _, s := range day.ds.Sequences() {
		want[s.Device] = shapeDevice(s.Records, next)
	}
	got := map[position.DeviceID][]position.Record{}
	behind := 0
	for _, r := range shapeFeed(day.ds, lcg(5)) {
		if n := len(got[r.Device]); n > 0 && r.At.Before(got[r.Device][n-1].At) {
			behind++
		}
		got[r.Device] = append(got[r.Device], r)
	}
	for dev, w := range want {
		g := got[dev]
		if len(g) != len(w) {
			t.Fatalf("%s: %d deliveries, want %d", dev, len(g), len(w))
		}
		for i := range w {
			if !g[i].At.Equal(w[i].At) || g[i].P != w[i].P {
				t.Fatalf("%s: delivery %d is %v, want %v", dev, i, g[i], w[i])
			}
		}
	}
	if behind == 0 {
		t.Fatal("no record arrived behind its device's previous one")
	}
}

func TestScheduleDueTimes(t *testing.T) {
	s := schedule{batchSize: 32, rate: 30000}
	for _, c := range []struct {
		i    int
		want time.Duration
	}{
		{0, 0},
		{1, 1066666},
		{3, 3200000},
		{937, 999466666},
		{9375, 10 * time.Second},
	} {
		if got := s.due(c.i); (got - c.want).Abs() > time.Microsecond {
			t.Errorf("due(%d) = %v, want %v", c.i, got, c.want)
		}
	}
	// The offered rate is the configured one over any whole number of
	// batches.
	if got := float64(100*32) / s.due(100).Seconds(); got < 29999 || got > 30001 {
		t.Errorf("offered %.1f records/s, want 30000", got)
	}
}

func TestSealingDelivery(t *testing.T) {
	t0 := time.Date(2017, 1, 1, 10, 0, 0, 0, time.UTC)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	rec := func(dev string, s int) position.Record {
		return position.Record{Device: position.DeviceID(dev), P: geom.Pt(1, 1), Floor: dsm.FloorID(1), At: at(s)}
	}
	// Device a's watermark: 10, 10 (an older record), 20, 20 (a
	// redelivery), 30. Device b interleaves.
	f := &feed{byDevice: map[position.DeviceID][]int{}}
	for i, d := range []struct {
		r  position.Record
		wm int
	}{
		{rec("a", 10), 10}, {rec("b", 5), 5}, {rec("a", 8), 10}, {rec("a", 20), 20},
		{rec("b", 25), 25}, {rec("a", 20), 20}, {rec("a", 30), 30},
	} {
		f.deliveries = append(f.deliveries, delivery{rec: d.r, watermark: at(d.wm), batch: i / 2})
		f.byDevice[d.r.Device] = append(f.byDevice[d.r.Device], i)
	}
	for _, c := range []struct {
		dev   string
		until int
		want  int
		found bool
	}{
		{"a", 9, 0, true},   // the first record already reaches it
		{"a", 10, 0, true},  // reaching the bound exactly seals
		{"a", 11, 3, true},  // the older record at index 2 does not move the watermark
		{"a", 20, 3, true},  // the first delivery of 20, not its redelivery
		{"a", 30, 6, true},  // the last record
		{"a", 31, 0, false}, // sealed only at close
		{"b", 6, 4, true},   // per device: a's records do not count
		{"c", 1, 0, false},  // unknown device
	} {
		got, ok := f.sealingDelivery(position.DeviceID(c.dev), at(c.until))
		if ok != c.found || (ok && got != c.want) {
			t.Errorf("sealingDelivery(%s, +%ds) = %d, %v; want %d, %v", c.dev, c.until, got, ok, c.want, c.found)
		}
	}
}

func TestTailReportsHighestSupportedPercentile(t *testing.T) {
	mk := func(n int) samples {
		s := make(samples, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if _, ok := mk(10).tail(); ok {
		t.Error("10 samples support no percentile with 10 beyond it")
	}
	for _, c := range []struct {
		n     int
		p, v  float64
		p99ok bool
	}{
		{11, 100.0 / 11, 1, false},
		{100, 90, 90, false},
		{1000, 99, 990, true},
		{20000, 99.95, 19990, true},
	} {
		got, ok := mk(c.n).tail()
		if !ok || got.N != c.n || got.Value != c.v || got.Percentile-c.p > 1e-9 || c.p-got.Percentile > 1e-9 {
			t.Errorf("tail of %d samples = %+v, %v; want p%g = %g", c.n, got, ok, c.p, c.v)
		}
		if supports(c.n, 0.99) != c.p99ok {
			t.Errorf("supports(%d, 0.99) = %v, want %v", c.n, !c.p99ok, c.p99ok)
		}
	}
	if got := mk(1000).quantile(0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := mk(5).quantile(0.5); got != 3 {
		t.Errorf("median of 1..5 = %g, want 3", got)
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{id: 1, name: "bench.root", start: 0, end: 100},
		// Two concurrent children covering [10, 60) together.
		{id: 2, parent: 1, name: "cleaning.Clean", start: 10, end: 50},
		{id: 3, parent: 1, name: "cleaning.Clean", start: 20, end: 60},
		{id: 4, parent: 3, name: "dsm.Locate", start: 30, end: 40},
	}
	self := selfTimes(spans)
	for layer, want := range map[string]time.Duration{"bench": 50, "cleaning": 40 + 30, "dsm": 10} {
		if self[layer] != want {
			t.Errorf("%s self time = %d, want %d", layer, self[layer], want)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric and workload names
// the program prints in step with the benchmark definition.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	same := func(what string, specs []metricSpec, def []struct{ Name, Unit string }) {
		if len(specs) != len(def) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", what, len(specs), len(def))
			return
		}
		for i := range specs {
			if specs[i].name != def[i].Name || specs[i].unit != def[i].Unit {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]", what, i, specs[i].name, specs[i].unit, def[i].Name, def[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, def.EndToEnd)
	same("per_layer", perLayer, def.PerLayer)
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s the program does not run", w.Name)
		}
	}
	if len(names) != len(workloads) {
		sort.Strings(names)
		t.Errorf("BENCHMARK.json lists workloads %v; the program runs %d", names, len(workloads))
	}
}
