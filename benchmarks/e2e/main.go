// Command e2e is the end-to-end benchmark: it regenerates the paper's
// artifacts through the same experiment engine `itr run -spec` uses, one
// fresh child process per sample, and reports host time, CPU time, set-up
// time and peak memory per workload. With -trace 1 it instead makes one
// traced pass of every workload and reports per-layer metrics.
//
//	go run . -seed 379 -reps 5          # all workloads, 5 reps each
//	go run . -workload fig8 -seconds 20 # one workload for at least 20 s
//	go run . -trace 1                   # per-layer metrics + out/trace.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The process exits 1 when any
// spec run failed or an output digest mismatched.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"
)

// expectedJSON holds the stage digests of every spec at the recorded seed.
//
//go:embed expected.json
var expectedJSON []byte

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "run only this workload (default: all)")
	seed := flag.Uint64("seed", 379, "seed of every fault campaign")
	seconds := flag.Int("seconds", 0, "measure for about this many seconds per workload, in whole samples")
	reps := flag.Int("reps", 5, "take at least this many samples of each workload")
	traceFlag := flag.Int("trace", 0, "1 = make the traced run and report per-layer metrics")
	expect := flag.String("expect", "", "prior result.json whose output digests must match")
	outDir := flag.String("out", "out", "directory for result.json and trace.json")
	child := flag.String("child", "", "internal: run one sample of this workload and print its record")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "-trace must be 0 or 1")
		return 2
	}
	if *child != "" {
		return childMain(*child, *seed, *traceFlag == 1)
	}

	all, err := loadWorkloads()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	sel, err := selectWorkloads(all, *workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	exps, err := loadExpectations(*expect)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	c := &checker{seed: *seed, exps: exps, first: make(map[string]digestSet)}

	var line resultLine
	if *traceFlag == 1 {
		line, err = traced(all, *workloadName, *seed, c, *outDir)
	} else {
		line, err = measured(sel, *seed, *reps, time.Duration(*seconds)*time.Second, c, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		return 2
	}
	if !line.Correct {
		return 1
	}
	return 0
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricResult `json:"metrics"`
}

type metricResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is out/result.json, and the shape -expect reads back.
type resultFile struct {
	Seed      uint64                    `json:"seed"`
	Workloads map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	Digests digestSet          `json:"digests"`
	Metrics map[string]summary `json:"metrics,omitempty"`
}

// measured takes untraced samples rep-major: each rep runs every selected
// workload once, in an order rotated by one per rep so machine drift spreads
// across workloads. After reps reps, sampling goes on while another rep
// (of median length) still ends within seconds per workload of the start.
func measured(sel []workloadDef, seed uint64, reps int, seconds time.Duration, c *checker, outDir string) (resultLine, error) {
	vals := make(map[string]map[string][]float64)
	for _, w := range sel {
		vals[w.Name] = make(map[string][]float64)
	}
	deadline := time.Now().Add(seconds * time.Duration(len(sel)))
	var repTimes []time.Duration
	for rep := 0; rep < reps || time.Now().Add(quantileDuration(repTimes, 0.5)).Before(deadline); rep++ {
		repStart := time.Now()
		for i := range sel {
			w := sel[(i+rep)%len(sel)]
			var rec sampleRecord
			use, err := runChild(w, seed, false, &rec)
			if err != nil {
				rec.Errors = append(rec.Errors, err.Error())
			}
			if !c.sample(w, rec) {
				continue
			}
			v := vals[w.Name]
			v["wall_s"] = append(v["wall_s"], rec.WallS)
			v["cpu_s"] = append(v["cpu_s"], use.CPUS)
			v["setup_s"] = append(v["setup_s"], rec.SetupS)
			v["peak_rss_mib"] = append(v["peak_rss_mib"], use.PeakRSSMiB)
		}
		repTimes = append(repTimes, time.Since(repStart))
	}

	file := resultFile{Seed: seed, Workloads: make(map[string]workloadResult)}
	line := c.line()
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\tn\t")
	for _, w := range sel {
		sums := make(map[string]summary)
		for _, m := range endToEnd {
			xs := vals[w.Name][m.Name]
			if len(xs) == 0 {
				continue
			}
			s := summarize(xs)
			sums[m.Name] = s
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%.4f\t%d\t\n", w.Name, m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.N)
			key := m.Name
			if len(sel) > 1 {
				key = w.Name + "." + m.Name
			}
			line.Metrics[key] = metricResult{Value: s.Median, Unit: m.Unit}
		}
		file.Workloads[w.Name] = workloadResult{Digests: c.first[w.Name], Metrics: sums}
	}
	tw.Flush()
	return line, writeJSON(filepath.Join(outDir, "result.json"), file)
}

// traced makes one traced pass of every workload, starting with first, each
// followed by one untraced sample of the same workload whose wall time the
// traced artifact spans are compared with. Every per-layer metric comes from
// the workload that exercises its layer, so all workloads are traced whatever
// -workload names.
func traced(all []workloadDef, first string, seed uint64, c *checker, outDir string) (resultLine, error) {
	start := 0
	for i, w := range all {
		if w.Name == first {
			start = i
		}
	}
	metrics := make(map[string]float64)
	var names []string
	var spans [][]span
	var buildS float64
	var programs int
	for i := range all {
		w := all[(start+i)%len(all)]
		var tr tracedRecord
		if _, err := runChild(w, seed, true, &tr); err != nil {
			tr.Errors = append(tr.Errors, err.Error())
		}
		c.attempted++
		if len(tr.Errors) > 0 {
			c.fail(w.Name, "traced run: "+strings.Join(tr.Errors, "; "))
			continue
		}
		for k, v := range tr.Metrics {
			metrics[k] = v
		}
		names, spans = append(names, w.Name), append(spans, tr.Spans)
		buildS += tr.BuildS
		programs += tr.Programs

		var rec sampleRecord
		if _, err := runChild(w, seed, false, &rec); err != nil {
			rec.Errors = append(rec.Errors, err.Error())
		}
		if c.sample(w, rec) {
			metrics["bench.trace_overhead_pct."+w.Name] = 100 * (tr.ArtifactS/rec.WallS - 1)
		}
	}
	if programs > 0 {
		metrics["workload.build_ms_per_program"] = 1e3 * buildS / float64(programs)
	}

	for k := range metrics {
		if !declared(perLayer, k) {
			c.fail("trace", "undeclared per-layer metric "+k)
		}
	}
	for _, m := range perLayer {
		if _, ok := metrics[m.Name]; !ok {
			c.fail("trace", "missing per-layer metric "+m.Name)
		}
	}
	line := c.line()
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tunit\tvalue\t")
	for _, m := range perLayer {
		if v, ok := metrics[m.Name]; ok {
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t\n", m.Name, m.Unit, v)
			line.Metrics[m.Name] = metricResult{Value: v, Unit: m.Unit}
		}
	}
	tw.Flush()

	f, err := os.Create(filepath.Join(outDir, "trace.json"))
	if err != nil {
		return line, err
	}
	if err := writeChrome(f, names, spans); err != nil {
		f.Close()
		return line, err
	}
	return line, f.Close()
}

// checker counts spec runs and decides which failed: a child error or
// crash, a digest that differs from an expectation, or one that differs
// from the first sample of the same workload in this run.
type checker struct {
	seed      uint64
	exps      []resultFile
	first     map[string]digestSet
	attempted int
	failed    int
}

// sample checks one untraced sample, reporting whether all its spec runs
// succeeded and matched.
func (c *checker) sample(w workloadDef, rec sampleRecord) bool {
	c.attempted += len(w.Specs)
	bad := make(map[string]bool)
	for _, bs := range w.Specs {
		got, ok := rec.Digests[bs.File]
		if !ok {
			bad[bs.File] = true
			continue
		}
		for _, e := range c.exps {
			if seedDependent(bs.Spec) && e.Seed != c.seed {
				continue
			}
			if want, ok := e.Workloads[w.Name].Digests[bs.File]; ok && !maps.Equal(want, got) {
				fmt.Fprintf(os.Stderr, "%s/%s: digests %v, expected %v\n", w.Name, bs.File, got, want)
				bad[bs.File] = true
			}
		}
		if prev, ok := c.first[w.Name][bs.File]; ok && !maps.Equal(prev, got) {
			fmt.Fprintf(os.Stderr, "%s/%s: digests %v differ from this run's first sample %v\n", w.Name, bs.File, got, prev)
			bad[bs.File] = true
		}
	}
	for _, e := range rec.Errors {
		fmt.Fprintf(os.Stderr, "%s: %s\n", w.Name, e)
	}
	if c.first[w.Name] == nil && len(bad) == 0 && len(rec.Errors) == 0 {
		c.first[w.Name] = rec.Digests
	}
	n := len(bad)
	if n == 0 && len(rec.Errors) > 0 {
		n = 1
	}
	c.failed += n
	return n == 0
}

func (c *checker) fail(where, msg string) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", where, msg)
	c.failed++
}

func (c *checker) line() resultLine {
	return resultLine{
		Correct:   c.failed == 0,
		Attempted: max(c.attempted, 1),
		Failed:    c.failed,
		Metrics:   make(map[string]metricResult),
	}
}

// loadExpectations returns the recorded digests plus, when path is set, the
// digests of a prior result.json.
func loadExpectations(path string) ([]resultFile, error) {
	var rec resultFile
	if err := json.Unmarshal(expectedJSON, &rec); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	exps := []resultFile{rec}
	if path == "" {
		return exps, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var prior resultFile
	if err := json.Unmarshal(raw, &prior); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return append(exps, prior), nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// declared reports whether name is one of defs.
func declared(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}
