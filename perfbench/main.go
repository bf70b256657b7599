// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the program only through its public entry points —
// cvcp.Select, the cvcpd HTTP API (server.NewManager / server.NewHandler
// over httptest) and server.RunWorker — on inputs generated from a seed,
// checks every operation against an untimed reference, and prints one
// JSON result line.
//
//	perfbench --workload select-fosc --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run (see
// README.md for the workloads, the metrics and which end-to-end metric
// each layer metric should move).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"cvcp"
	"cvcp/internal/metrics"
)

// Problem sizes every workload shares unless it says otherwise.
const (
	nRows     = 2000
	nDims     = 16
	nClasses  = 5
	nFolds    = 10
	labelFrac = 0.10
)

// minSamples is the fewest operations a measurement window takes.
const minSamples = 3

// config is one invocation's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // sample count behind the value, for the human-readable table
}

// outcome is what a workload returns: its operation tally, its metrics and
// the input sizes it used.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	sizes             map[string]any
	notes             []string
	samples           []float64          // every measured operation's latency in ms, in order
	summary           map[string]float64 // unbounded latency summaries, for the table and context line
}

func (o *outcome) set(name, unit string, v float64, n int) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit, n: n}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*outcome, error){
	"select-fosc":   func(c config) (*outcome, error) { return runSelect(c, foscSelect) },
	"select-kmeans": func(c config) (*outcome, error) { return runSelect(c, kmeansSelect) },
	"reselect-dist": runReselect,
}

func main() {
	var (
		c     config
		trace int
	)
	flag.StringVar(&c.workload, "workload", "", "workload: select-fosc, select-kmeans or reselect-dist")
	flag.Int64Var(&c.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&c.seconds, "seconds", 25, "measurement window per phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	c.trace = trace == 1
	run, ok := workloads[c.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", c.workload)
		os.Exit(2)
	}
	out, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if out.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		os.Exit(1)
	}
	report(c, out)
}

// report prints the human-readable table to stderr, then the run's
// context line and the result line to stdout; the result line is last.
func report(c config, out *outcome) {
	names := make([]string, 0, len(out.metrics))
	for name := range out.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s seed=%d trace=%v: %d attempted, %d failed, error_rate=%.4f\n",
		c.workload, c.seed, c.trace, out.attempted, out.failed, float64(out.failed)/float64(out.attempted))
	for _, name := range names {
		m := out.metrics[name]
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.n)
	}
	for _, name := range []string{"op_ms.min", "op_ms.p50", "op_ms.p90"} {
		if v, ok := out.summary[name]; ok {
			fmt.Fprintf(os.Stderr, "  %-32s %14.6g %-6s n=%d (not bounded)\n", name, v, "ms", len(out.samples))
		}
	}
	for _, note := range out.notes {
		fmt.Fprintln(os.Stderr, "  !", note)
	}
	ctx := map[string]any{
		"workload":   c.workload,
		"seed":       c.seed,
		"seconds":    c.seconds,
		"trace":      c.trace,
		"host":       hostFingerprint(),
		"sizes":      out.sizes,
		"error_rate": float64(out.failed) / float64(out.attempted),
		"op_ms":      out.samples,
		"summary":    out.summary,
	}
	line, _ := json.Marshal(map[string]any{"context": ctx})
	fmt.Println(string(line))
	res, _ := json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   out.metrics,
	})
	fmt.Println(string(res))
}

// hostFingerprint identifies the machine a result came from.
func hostFingerprint() map[string]any {
	return map[string]any{
		"goarch":     runtime.GOARCH,
		"cpu_model":  cpuModel(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resetPeakRSS returns freed heap to the operating system and resets the
// process's resident-set high-water mark to its current resident set, so
// that peakRSSMB read when a measurement window closes covers that window
// and not the references and inputs prepared before it.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// scrape reads the process-wide Prometheus registry — the same exposition
// GET /metrics serves — into sample name → value (labelled samples keep
// their label set in the name).
func scrape() map[string]float64 {
	rec := httptest.NewRecorder()
	metrics.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// counterDelta is after[name] − before[name].
func counterDelta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}

// quantile is the linear-interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// decodeTime is the median wall time in seconds of decodeReps ReadCSV
// calls on csv: the dataset layer's decode of a labelled payload.
func decodeTime(csv string) (float64, error) {
	var walls []float64
	for i := 0; i < decodeReps; i++ {
		t0 := time.Now()
		if _, err := cvcp.ReadCSV("decode", strings.NewReader(csv), true); err != nil {
			return 0, fmt.Errorf("decode replay: %w", err)
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return median(walls), nil
}

const decodeReps = 11

// setSamples records a window's operation latencies (ms): their mean as
// the end-to-end op_ms.mean, every sample, and, for the table and the
// context line only, their minimum, median and p90. Those summaries are
// not end-to-end metrics: the host's speed swings move the tail by more
// than any bound, and the minimum moves with them (see README.md).
func (o *outcome) setSamples(lat []float64) {
	o.set("op_ms.mean", "ms", mean(lat), len(lat))
	o.samples = lat
	o.summary = map[string]float64{"op_ms.min": quantile(lat, 0), "op_ms.p50": median(lat), "op_ms.p90": quantile(lat, 0.9)}
}

// window reports whether another closed-loop operation should start: the
// window has time left, or fewer than minOps operations ran.
func window(start time.Time, seconds float64, done, minOps int) bool {
	return done < minOps || time.Since(start).Seconds() < seconds
}
