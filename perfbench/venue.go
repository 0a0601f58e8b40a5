package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"time"

	"trips/internal/experiments"
	"trips/internal/position"
	"trips/internal/simul"
)

// Venue-day shape. Every workload runs one simulated day at the demo mall
// (3 floors × 6 shops): shoppers arrive uniformly over dayWindow and each
// visits 3–6 regions, the population the paper's experiments use. The
// population is sized from the run length so that the paced stream replays
// the whole day in about --seconds at streamRate.
const (
	dayWindow = 12 * time.Hour
	// recordsPerShopper is the mean raw record count of one simulated
	// visit under the default error model (measured over seeds 1–20).
	recordsPerShopper = 322
	// minShoppers keeps the day busy enough for the warehouse and views to
	// see every region even on very short runs.
	minShoppers = 200
)

// Delivery shape of the live feed, trips-load's (internal/loadgen): each
// device's own stream is shuffled within disjoint windows of shuffleWindow
// positions, and every duplicateEvery-th record, counting back from the
// last, is redelivered duplicateLag positions later. A record can thus
// arrive behind its device's watermark, where the engine admits it,
// collapses it as a duplicate, or drops it as late.
const (
	shuffleWindow  = 8
	duplicateEvery = 9
	duplicateLag   = 5
)

// wireTime is the JSONL time layout the position parsers read back
// exactly (millisecond resolution).
const wireTime = "2006-01-02T15:04:05.000Z07:00"

// shoppersFor sizes the day's population for a run of the given length.
func shoppersFor(seconds int) int {
	return max(minShoppers, streamRate*seconds/recordsPerShopper)
}

// venueDay is one seeded simulated day: the trained pipeline, the raw
// records as they travel on the wire (millisecond timestamps), and the
// simulator's ground-truth semantics.
type venueDay struct {
	env     *experiments.Env
	ds      *position.Dataset
	truths  map[position.DeviceID]simul.Truth
	records int
}

// newVenueDay simulates the day and trains the translator on it — the
// paper's set-up: generate, label, train. It keeps only what the workloads
// read: the 1 Hz ground-truth traces and the nanosecond-resolution raw
// dataset would otherwise stay live through the measured phase and make
// the collector's work, not the program's, a large part of every timing.
func newVenueDay(seed int64, shoppers int) (*venueDay, error) {
	spec := experiments.DefaultEnvSpec()
	spec.Devices = shoppers
	spec.Seed = seed
	spec.Window = dayWindow
	spec.Errors = simul.DefaultErrorModel()
	env, err := experiments.NewEnv(spec)
	if err != nil {
		return nil, fmt.Errorf("venue day: %w", err)
	}
	day := &venueDay{env: env, ds: position.NewDataset(), truths: make(map[position.DeviceID]simul.Truth, len(env.Truths))}
	for _, s := range env.Raw.Sequences() {
		out := position.NewSequence(s.Device)
		for _, r := range s.Records {
			r.At = r.At.Truncate(time.Millisecond)
			out.Records = append(out.Records, r)
		}
		day.records += out.Len()
		day.ds.AddSequence(out)
		day.truths[s.Device] = simul.Truth{Semantics: env.Truths[s.Device].Semantics}
	}
	env.Raw, env.Truths, env.Editor = nil, nil, nil
	return day, nil
}

// delivery is one record on the live feed, in send order.
type delivery struct {
	rec position.Record
	// watermark is the device's latest record time once this delivery is
	// admitted: the running maximum of At over the device's deliveries.
	watermark time.Time
	// batch is the index of the ingest batch that carries it.
	batch int
}

// feed is the day's live feed: every device's records shuffled and
// duplicated, merged into one send order, and cut into JSONL batches.
type feed struct {
	deliveries []delivery
	batches    [][]byte
	// byDevice lists, per device, the indexes into deliveries in send
	// order — the sealing-record lookup's search space.
	byDevice map[position.DeviceID][]int
	// distinct counts the distinct records; duplicates the redeliveries.
	distinct, duplicates int
}

// lcg is a deterministic bounded-int source for the delivery shaping,
// independent of the simulator's random stream.
func lcg(seed uint64) func(mod int) int {
	st := seed
	return func(mod int) int {
		st = st*6364136223846793005 + 1442695040888963407
		return int((st >> 33) % uint64(mod))
	}
}

// shapeDevice perturbs one device's in-order records into its delivery
// order, as trips-load's shapeDelivery does.
func shapeDevice(recs []position.Record, next func(int) int) []position.Record {
	sched := append([]position.Record(nil), recs...)
	for base := 0; base < len(sched); base += shuffleWindow {
		end := min(base+shuffleWindow, len(sched))
		for i := end - 1; i > base; i-- {
			j := base + next(i-base+1)
			sched[i], sched[j] = sched[j], sched[i]
		}
	}
	// Highest position first, so the positions still to insert at stay
	// valid.
	for i := len(sched) - 1; i >= 0; i -= duplicateEvery {
		sched = slices.Insert(sched, min(i+duplicateLag, len(sched)), sched[i])
	}
	return sched
}

// shapeFeed shapes every device's stream and merges the streams into one
// send order by device clock: a delivery goes out when the latest record
// time its device has sent reaches it (ties by device, then stream
// position), so each device's own order is kept.
func shapeFeed(ds *position.Dataset, next func(int) int) []position.Record {
	type slot struct {
		rec   position.Record
		clock time.Time
	}
	var slots []slot
	for _, s := range ds.Sequences() {
		var clock time.Time
		for _, r := range shapeDevice(s.Records, next) {
			if r.At.After(clock) {
				clock = r.At
			}
			slots = append(slots, slot{r, clock})
		}
	}
	sort.SliceStable(slots, func(i, j int) bool {
		if !slots[i].clock.Equal(slots[j].clock) {
			return slots[i].clock.Before(slots[j].clock)
		}
		return slots[i].rec.Device < slots[j].rec.Device
	})
	out := make([]position.Record, len(slots))
	for i, s := range slots {
		out[i] = s.rec
	}
	return out
}

// buildFeed shapes the day's records into one send order and cuts it into
// batches of batchSize JSONL lines. The feed is a pure function of the
// dataset and the seed.
func buildFeed(ds *position.Dataset, seed int64, batchSize int) (*feed, error) {
	sched := shapeFeed(ds, lcg(uint64(seed)^0x9e3779b97f4a7c15))
	distinct := ds.NumRecords()
	f := &feed{
		deliveries: make([]delivery, len(sched)),
		byDevice:   make(map[position.DeviceID][]int),
		distinct:   distinct,
		duplicates: len(sched) - distinct,
	}
	latest := make(map[position.DeviceID]time.Time)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, r := range sched {
		if r.At.After(latest[r.Device]) {
			latest[r.Device] = r.At
		}
		f.deliveries[i] = delivery{rec: r, watermark: latest[r.Device], batch: i / batchSize}
		f.byDevice[r.Device] = append(f.byDevice[r.Device], i)
		if err := enc.Encode(wireRecord(r)); err != nil {
			return nil, err
		}
		if (i+1)%batchSize == 0 || i == len(sched)-1 {
			f.batches = append(f.batches, bytes.Clone(buf.Bytes()))
			buf.Reset()
		}
	}
	return f, nil
}

// jsonRecord is the flat JSON-lines form POST /ingest and the position
// parsers accept.
type jsonRecord struct {
	Device string  `json:"device"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Floor  string  `json:"floor"`
	Time   string  `json:"time"`
}

func wireRecord(r position.Record) jsonRecord {
	return jsonRecord{
		Device: string(r.Device),
		X:      r.P.X,
		Y:      r.P.Y,
		Floor:  r.Floor.String(),
		Time:   r.At.UTC().Format(wireTime),
	}
}

// sealingDelivery returns the index of the first delivery of dev whose
// admission lifts the device watermark to at least until — the record whose
// arrival made a triplet ending at until−horizon sealable. ok is false when
// the watermark never gets there (the triplet seals only at close).
func (f *feed) sealingDelivery(dev position.DeviceID, until time.Time) (int, bool) {
	idx := f.byDevice[dev]
	k := sort.Search(len(idx), func(k int) bool { return !f.deliveries[idx[k]].watermark.Before(until) })
	if k == len(idx) {
		return 0, false
	}
	return idx[k], true
}

// schedule maps batch indexes to due times: the open-loop generator offers
// batchSize records every batchSize/rate seconds, whatever the engine does.
type schedule struct {
	batchSize int
	rate      float64 // records per second
}

// due is batch i's send time as an offset from the start of the stream.
func (s schedule) due(i int) time.Duration {
	return time.Duration(float64(i) * float64(s.batchSize) / s.rate * float64(time.Second))
}
