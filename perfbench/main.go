// Command perfbench is the TRIPS benchmark: one process, no network, no
// ports. It drives the program's public packages in internal/* the way
// trips-server and trips-translate do, checks the outputs, and prints every
// metric by name and unit; the last line of standard output is the result
// object.
//
//	perfbench --workload stream-paced --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records in-memory spans around its calls into each layer, prints the
// per-layer metrics and writes the spans to .bench_build/perfbench-traces.
// See README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// Paths inside the checkout the benchmark runs from.
const (
	buildDir = ".bench_build"
	traceDir = ".bench_build/perfbench-traces"
)

// setupRepeats is how many times a run builds its inputs and opens the
// program; setup_s is the median, and the last set-up is the one measured.
const setupRepeats = 3

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of the untraced run, reported on every
// workload; README.md defines each per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"freshness_p50_ms", "ms"},
	{"freshness_p99_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"accuracy_f1", "ratio"},
	{"heap_live_peak_mb", "MiB"},
}

// perLayer are the metrics of the traced run. A layer the workload does not
// run reports 0.
var perLayer = []metricSpec{
	{"position.parse_ns_per_record", "ns"},
	{"position.self_ms", "ms"},
	{"online.ingest_ns_per_record", "ns"},
	{"online.flush_clean_ms_mean", "ms"},
	{"online.flush_clean_ms_p99", "ms"},
	{"online.flush_annotate_ms_mean", "ms"},
	{"online.flush_annotate_ms_p99", "ms"},
	{"online.flush_seal_ms_mean", "ms"},
	{"online.flush_seal_ms_p99", "ms"},
	{"online.flushes", "count"},
	{"online.incremental_ratio", "ratio"},
	{"online.shard_depth_max", "count"},
	{"online.refused_batches", "count"},
	{"online.late_records", "count"},
	{"online.batch_diff_triplets", "count"},
	{"online.sealed_at_close", "count"},
	{"online.self_ms", "ms"},
	{"cleaning.clean_us_per_record", "us"},
	{"cleaning.repair_ratio", "ratio"},
	{"cleaning.self_ms", "ms"},
	{"annotation.annotate_us_per_record", "us"},
	{"annotation.triplets_per_krecord", "count"},
	{"annotation.self_ms", "ms"},
	{"complement.knowledge_ms", "ms"},
	{"complement.complement_us_per_seq", "us"},
	{"complement.inserted_ratio", "ratio"},
	{"complement.self_ms", "ms"},
	{"dsm.locate_ns", "ns"},
	{"dsm.walking_distance_ns", "ns"},
	{"dsm.self_ms", "ms"},
	{"tripstore.append_us_p99", "us"},
	{"tripstore.ingest_result_us_per_trip", "us"},
	{"tripstore.query_device_us_p50", "us"},
	{"tripstore.query_device_us_p99", "us"},
	{"tripstore.query_region_us_p50", "us"},
	{"tripstore.query_region_us_p99", "us"},
	{"tripstore.query_time_us_p50", "us"},
	{"tripstore.query_time_us_p99", "us"},
	{"tripstore.query_event_us_p50", "us"},
	{"tripstore.query_event_us_p99", "us"},
	{"tripstore.scanned_per_result", "ratio"},
	{"tripstore.replay_ms", "ms"},
	{"tripstore.self_ms", "ms"},
	{"storage.bytes_per_trip", "B"},
	{"storage.segments", "count"},
	{"analytics.fold_us_p99", "us"},
	{"analytics.ingest_result_us_per_trip", "us"},
	{"analytics.occupancy_us_p50", "us"},
	{"analytics.occupancy_us_p99", "us"},
	{"analytics.topk_us_p50", "us"},
	{"analytics.topk_us_p99", "us"},
	{"analytics.flows_us_p50", "us"},
	{"analytics.flows_us_p99", "us"},
	{"analytics.dwell_us_p50", "us"},
	{"analytics.dwell_us_p99", "us"},
	{"analytics.bootstrap_ms", "ms"},
	{"analytics.self_ms", "ms"},
	{"core.translate_1cpu_records_per_s", "1/s"},
	{"core.self_ms", "ms"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.restart_s", "s"},
	{"bench.query_refresh_us_p50", "us"},
	{"bench.query_refresh_us_p99", "us"},
	{"bench.failed_ratio", "ratio"},
	{"bench.spans", "count"},
	{"bench.self_ms", "ms"},
	{"bench.traced_cpu_us_per_op", "us"},
	{"bench.traced_throughput_per_s", "1/s"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"stream-paced":    streamPaced,
	"batch-venue-day": batchVenueDay,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one invocation: its arguments, the figures it measured and the
// outcome of its correctness checks.
type run struct {
	seed    int64
	seconds int
	traced  bool
	// rec records spans in the traced run; nil otherwise.
	rec *spanRecorder
	// dir is the run's private working directory inside the checkout.
	dir string
	log io.Writer

	values    map[string]float64
	attempted int64
	failed    int64
	failures  []string
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.values[name] = v }

// check records a correctness check; a failing check is reported on
// standard error by name and makes the run incorrect.
func (r *run) check(name string, ok bool, format string, args ...any) {
	if ok {
		return
	}
	msg := fmt.Sprintf("check %s FAILED: %s", name, fmt.Sprintf(format, args...))
	fmt.Fprintln(r.log, msg)
	r.failures = append(r.failures, msg)
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "# "+format+"\n", args...)
}

// timeSetup runs build setupRepeats times, keeps the last result and
// records the median wall time as setup_s. Earlier results are released
// through drop before the next build so set-ups do not stack in memory.
func timeSetup[T any](r *run, build func() (T, error), drop func(T)) (T, error) {
	var times samples
	var out T
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			drop(out)
			runtime.GC()
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return out, err
		}
		times = append(times, time.Since(start).Seconds())
		out = v
	}
	r.set("setup_s", times.median())
	r.logf("setup_s samples %v", times)
	return out, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak of /gc/heap/live:bytes while it runs.
// Sampling starts after set-up, once every input of the measured phase is
// built.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
	// base is the live heap when sampling starts: the set-up's inputs
	// and the freshly opened program.
	base uint64
}

// heapLiveBytes reads /gc/heap/live:bytes: the heap the last collection
// found live.
func heapLiveBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startHeapSampler collects garbage first, so the peak covers what the
// measured phase keeps live rather than set-up leftovers.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), base: heapLiveBytes()}
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			h.peak = max(h.peak, heapLiveBytes())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns, in MiB, how far the peak rose
// above the baseline: the heap the measured phase added, without the
// benchmark's own inputs (the day, the encoded feed) that the baseline
// holds. The live heap only changes when a collection ends: a workload
// whose heap peaks at the end of its phase collects there itself.
func (h *heapSampler) finish(r *run) float64 {
	close(h.stop)
	<-h.done
	h.peak = max(h.peak, heapLiveBytes())
	r.logf("live heap: %.1f MiB when the measured phase started, %.1f MiB at peak",
		float64(h.base)/(1<<20), float64(h.peak)/(1<<20))
	return float64(h.peak-h.base) / (1 << 20)
}

// fingerprint describes the host and the commit measured.
func fingerprint() string {
	return fmt.Sprintf("host nproc=%d gomaxprocs=%d go=%s %s/%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, gitCommit())
}

// gitCommit resolves HEAD through .git in the working directory: "none" in
// a checkout without git metadata, "unknown" when HEAD names a packed ref.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	b, err := os.ReadFile(filepath.Join(".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: stream-paced or batch-venue-day")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		traced   = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	)
	flag.Parse()
	if err := runMain(*workload, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

var errIncorrect = errors.New("correctness checks failed")

func runMain(workload string, seed int64, seconds int, traced bool) error {
	drive, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "perfbench-run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r := &run{seed: seed, seconds: seconds, traced: traced,
		dir: dir, log: os.Stderr, values: make(map[string]float64)}
	if traced {
		r.rec = newSpanRecorder()
	}
	fmt.Printf("# %s\n", fingerprint())
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%v\n", workload, seed, seconds, traced)
	if err := drive(r); err != nil {
		return err
	}

	specs := endToEnd
	if traced {
		specs = perLayer
		r.set("bench.spans", float64(len(r.rec.snapshot())))
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(traceDir, workload+".spans")
		if err := r.rec.write(path); err != nil {
			return err
		}
		r.logf("spans written to %s", path)
	}
	res := result{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	var missing []string
	for _, m := range specs {
		v, ok := r.values[m.name]
		if !ok {
			missing = append(missing, m.name)
			continue
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("workload %s did not measure %s", workload, strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload %s attempted nothing", workload)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}
