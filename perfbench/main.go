// Command perfbench is the repository benchmark. One invocation runs one
// named workload from a seed: it generates the inputs, sets the system up
// several times, drives the workload for a fixed number of seconds, checks
// every output, and prints one JSON result object as the last line of
// standard output. Without --workload it runs every workload in turn.
//
//	perfbench --workload mine-categorical --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures with every instrument off and reports the end-to-end
// metrics. --trace 1 splits the time between an untraced and a traced
// phase (core.Config.Metrics and core.Config.Trace set, benchmark spans
// recorded around every layer call) and reports the per-layer metrics,
// including trace.overhead_ratio. The spans are written as JSON lines when
// the run ends (see --spans). The exit status is non-zero when any output
// fails its correctness check. See README.md for the workloads and the
// metric table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	tiny     bool
	spans    string // JSONL output for the traced run's spans
	workDir  string // scratch space for the serve workload's store
	log      io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o       = options{log: stderr}
		seconds = fs.Int("seconds", 10, "measurement time of the run")
		traced  = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	)
	fs.StringVar(&o.workload, "workload", "all", "workload name: "+workloadNames()+", or all (one process each)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.BoolVar(&o.tiny, "tiny", false, "tiny inputs (a smoke test, not a measurement)")
	fs.StringVar(&o.spans, "spans", "", "traced run: write spans here (default <workdir>/spans-<workload>-<seed>.jsonl)")
	fs.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for files the run creates")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.workload == "all" {
		return runAll(args, stdout, stderr)
	}
	w, ok := workloadByName(o.workload)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload {%s} --seed N --seconds S>=1 --trace {0|1}\n", workloadNames())
		return 2
	}
	o.budget = time.Duration(*seconds) * time.Second
	o.trace = *traced == 1
	if o.trace && o.spans == "" {
		o.spans = filepath.Join(o.workDir, "spans-"+o.workload+"-"+strconv.FormatInt(o.seed, 10)+".jsonl")
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	r := newRunner(o)
	if err := w.run(r); err != nil {
		// An error (as opposed to a failed check) means the run could not
		// measure at all: no result line.
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if o.trace {
		if err := r.spans.writeFile(o.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans: %d written to %s\n", r.spans.len(), o.spans)
		r.spans.printSelfTimes(stderr)
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	r.printTable(stderr, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload with the same flags, each in a process of
// its own so that no workload inherits another's heap or peak RSS. It
// fails when any of them fails.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(append([]string(nil), args...), "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner collects one run's measurements, operation tallies and
// correctness verdicts.
type runner struct {
	opts      options
	spans     *spanLog // nil in untraced runs; spans are recorded only when tracing
	values    map[string]float64
	attempted int
	failed    int
	opSeq     int64
}

func newRunner(o options) *runner {
	r := &runner{opts: o, values: make(map[string]float64)}
	if o.trace {
		r.spans = newSpanLog()
	}
	return r
}

// set records a metric value; the name must be in the metric table.
func (r *runner) set(name string, v float64) { r.values[name] = v }

// ops counts operations attempted and how many of them failed.
func (r *runner) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// check counts one correctness check; a failed one is logged.
func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(r.opts.log, "FAIL %s: %s\n", r.opts.workload, fmt.Sprintf(format, args...))
	}
}

// logf writes a progress line to the diagnostic stream.
func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.opts.log, "%s: %s\n", r.opts.workload, fmt.Sprintf(format, args...))
}

// result assembles the output object: the end-to-end metrics in an
// untraced run, the per-layer metrics in a traced one. A per-layer metric
// the workload never reaches reads 0; an end-to-end metric must have been
// measured.
func (r *runner) result() (result, error) {
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue),
	}
	table := endToEnd
	if r.opts.trace {
		table = perLayer
	}
	for _, m := range table {
		v, ok := r.values[m.name]
		if !ok && !r.opts.trace {
			return res, fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if res.Attempted < 1 {
		return res, errors.New("no operation was attempted")
	}
	return res, nil
}

// printTable writes the metrics one per line, in table order.
func (r *runner) printTable(w io.Writer, res result) {
	table := endToEnd
	if r.opts.trace {
		table = perLayer
	}
	for _, m := range table {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s", m.name, res.Metrics[m.name].Value, m.unit)
		if m.moves != "" {
			fmt.Fprintf(w, " moves %s on %s", m.moves, strings.Join(m.on, ", "))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}
