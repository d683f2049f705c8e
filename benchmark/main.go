// Command benchmark is the repository's end-to-end benchmark. It drives the
// B-Par system from outside, through its public calls only, on three
// workloads:
//
//	train-h64      host-sized BLSTM training (kernel-bound)
//	train-b1-t100  the paper's Table III batch-1 BLSTM row (latency-bound)
//	serve-mixed    in-process BGRU inference service under open-loop load
//
// Every run checks the program's outputs, counts attempted and failed
// operations, prints a human-readable report and, as its last line, one
// JSON object with the metrics. With -trace 0 the metrics are the
// end-to-end ones; with -trace 1 the run also records spans around the
// calls into each layer and reports the per-layer metrics, the traced run's
// overhead against an untraced window of the same run, and the outcome of
// the reconciliation checks.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash benchmark/run.sh --workload train-h64 --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"bpar/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; see the workload files for how each is
// measured where the workload has no such facet.
var endToEnd = []metricDef{
	{"train_seq_per_s", "seq/s"},
	{"serve_p50_ms", "ms"},
	{"serve_p99_ms", "ms"},
	{"serve_goodput_rps", "req/s"},
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
}

// profKinds are the task kinds the three workloads' templates emit; the
// traced run rolls the graph profile up per kind.
var profKinds = []string{
	"proj", "lstm", "gru", "merge", "head",
	"head-bwd", "merge-bwd", "lstm-bwd", "dx", "dw", "reduce",
}

// perLayer are the metrics of the traced run, named after the module they
// measure. A metric that has no meaning on a workload reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"host.gemm_peak_gflops", "GFLOP/s"},
		{"host.stream_gbps", "GB/s"},
		{"data.batch_ms_per_step", "ms"},
		{"tensor.gflop_per_step", "GFLOP"},
		{"tensor.gemm_calls_per_step", "count"},
		{"tensor.proj_gflops", "GFLOP/s"},
		{"tensor.dw_gflops", "GFLOP/s"},
		{"tensor.chain_gflops", "GFLOP/s"},
		{"tensor.chain_gbps", "GB/s"},
		{"taskrt.tasks_per_step", "count"},
		{"taskrt.submit_us_per_step", "us"},
		{"taskrt.complete_us_per_step", "us"},
		{"taskrt.lockwait_us_per_step", "us"},
		{"taskrt.overhead_ratio", "ratio"},
		{"taskrt.idle_frac", "ratio"},
		{"taskrt.steals_per_step", "count"},
		{"core.step_ms_p50", "ms"},
		{"core.first_step_ms", "ms"},
		{"core.allocs_per_step", "count"},
		{"core.alloc_kb_per_step", "KB"},
		{"core.gc_cpu_frac", "ratio"},
		{"core.tpl_hit_ratio", "ratio"},
		{"core.speedup_2w", "ratio"},
		{"core.host_ms_per_step", "ms"},
		{"serve.queue_wait_ms_p50", "ms"},
		{"serve.queue_wait_ms_p99", "ms"},
		{"serve.batch_wait_ms_p50", "ms"},
		{"serve.batch_wait_ms_p99", "ms"},
		{"serve.compute_ms_p50", "ms"},
		{"serve.compute_ms_p99", "ms"},
		{"serve.batch_fill", "ratio"},
		{"serve.padding_frac", "ratio"},
		{"serve.rejected_frac", "ratio"},
		{"prof.work_ms_per_step", "ms"},
		{"prof.span_ms_per_step", "ms"},
		{"prof.parallelism", "ratio"},
		{"prof.util", "ratio"},
		{"prof.dep_wait_frac", "ratio"},
		{"prof.sched_idle_frac", "ratio"},
	}
	for _, k := range profKinds {
		defs = append(defs,
			metricDef{"prof.kind." + k + ".ms_per_step", "ms"},
			metricDef{"prof.kind." + k + ".gflops", "GFLOP/s"})
	}
	return append(defs,
		metricDef{"loadgen.late_ms_p99", "ms"},
		metricDef{"trace.overhead_frac", "ratio"})
}()

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
}

// outcome is what a workload run produces: its metric values by name, the
// operation counts, and the report lines printed ahead of the result.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	notes     []string
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// fail counts one failed operation and explains it on standard error.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "benchmark: FAILED: "+format+"\n", args...)
}

// note adds one line to the printed report.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(opts, *outcome, *tracer) error{
	"train-h64":     func(o opts, out *outcome, tr *tracer) error { return runTrain(h64Spec, o, out, tr) },
	"train-b1-t100": func(o opts, out *outcome, tr *tracer) error { return runTrain(b1Spec, o, out, tr) },
	"serve-mixed":   runServe,
}

func main() {
	var o opts
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: train-h64, train-b1-t100 or serve-mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := run(o, traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o opts, traceFlag int) error {
	runW, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", traceFlag)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", o.seconds)
	}
	// Both engines' worker pools run two workers; more Ps than the host has
	// cores would only add descheduling noise.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	// The system's own info logs (server start and drain) would bury the report.
	if err := obs.InitLogging(os.Stderr, "warn"); err != nil {
		return err
	}
	host := describeHost()
	fmt.Printf("host: %s\n", host)
	fmt.Printf("workload: %s seed=%d seconds=%g trace=%d\n", o.workload, o.seed, o.seconds, traceFlag)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	out := newOutcome()
	if err := runW(o, out, tr); err != nil {
		return err
	}
	if tr != nil {
		path, err := tr.write(o.out, o.workload, o.seed, host)
		if err != nil {
			return err
		}
		out.note("trace: %d spans written to %s", tr.len(), path)
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	for _, d := range defs {
		v := out.values[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("  %-34s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Printf("operations: attempted=%d failed=%d\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// hostInfo is the host record every result carries.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	LLCBytes   int64  `json:"llc_bytes"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s llc=%.1fMiB",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, float64(h.LLCBytes)/(1<<20))
}

func describeHost() hostInfo {
	h := hostInfo{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LLCBytes:   llcBytes(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// llcBytes reads the largest cache level the kernel reports for cpu0; 0
// when the host does not say.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var best int64
	for _, d := range dirs {
		b, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		var n int64
		if _, err := fmt.Sscan(s, &n); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}
