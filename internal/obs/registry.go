package obs

import (
	"expvar"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry maps stable metric names to live counters, gauges, and
// histograms. Registration takes a mutex; reads go straight to the
// underlying lock-free primitives, so scraping /metrics mid-campaign never
// stalls a worker.
//
// Names follow Prometheus conventions (snake_case, unit-suffixed, counters
// end in _total) and may carry a literal label set, e.g.
// `itr_detection_latency_cycles{backend="dme"}` — the exposition writer
// splits the base name from the braces when forming series.
type Registry struct {
	mu      sync.Mutex
	order   []string
	metrics map[string]metric
}

type metric struct {
	counter *Counter
	gauge   func() int64
	hist    *Hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

func (r *Registry) register(name string, m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	r.metrics[name] = m
	r.order = append(r.order, name)
}

// RegisterCounter exposes an existing counter (e.g. a probe field) under
// name. Panics on duplicate names — metric names are program constants.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	r.register(name, metric{counter: c})
}

// RegisterGaugeFunc exposes a read callback as a gauge. The callback must
// be safe to invoke from the serving goroutine at any time.
func (r *Registry) RegisterGaugeFunc(name string, f func() int64) {
	r.register(name, metric{gauge: f})
}

// Hist returns the histogram registered under name, creating and
// registering a fresh one on first use.
func (r *Registry) Hist(name string) *Hist {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.hist == nil {
			panic("obs: metric " + name + " is not a histogram")
		}
		return m.hist
	}
	h := &Hist{}
	r.metrics[name] = metric{hist: h}
	r.order = append(r.order, name)
	return h
}

// snapshot returns the registered metrics in sorted-name order.
func (r *Registry) snapshot() ([]string, map[string]metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	ms := make(map[string]metric, len(names))
	for _, n := range names {
		ms[n] = r.metrics[n]
	}
	return names, ms
}

// splitSeries splits `base{labels}` into base and the inner label list
// (without braces); labels is empty when the name carries none.
func splitSeries(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// series joins a base name with label pairs into one exposition series.
func series(base, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return base
	case labels == "":
		return base + "{" + extra + "}"
	case extra == "":
		return base + "{" + labels + "}"
	default:
		return base + "{" + labels + "," + extra + "}"
	}
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4), series sorted by metric name. Counter and gauge
// values are point-in-time reads; histograms expose
// cumulative _bucket{le=...} series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	names, ms := r.snapshot()
	typed := make(map[string]bool)
	for _, name := range names {
		m := ms[name]
		base, labels := splitSeries(name)
		switch {
		case m.counter != nil:
			if !typed[base] {
				typed[base] = true
				fmt.Fprintf(w, "# TYPE %s counter\n", base)
			}
			fmt.Fprintf(w, "%s %d\n", series(base, labels, ""), m.counter.Load())
		case m.gauge != nil:
			if !typed[base] {
				typed[base] = true
				fmt.Fprintf(w, "# TYPE %s gauge\n", base)
			}
			fmt.Fprintf(w, "%s %d\n", series(base, labels, ""), m.gauge())
		case m.hist != nil:
			if !typed[base] {
				typed[base] = true
				fmt.Fprintf(w, "# TYPE %s histogram\n", base)
			}
			var cum int64
			for _, b := range m.hist.Buckets() {
				cum += b.Count
				fmt.Fprintf(w, "%s %d\n", series(base+"_bucket", labels, fmt.Sprintf("le=%q", fmt.Sprint(b.Hi))), cum)
			}
			fmt.Fprintf(w, "%s %d\n", series(base+"_bucket", labels, `le="+Inf"`), m.hist.Count())
			fmt.Fprintf(w, "%s %d\n", series(base+"_sum", labels, ""), m.hist.Sum())
			fmt.Fprintf(w, "%s %d\n", series(base+"_count", labels, ""), m.hist.Count())
		}
	}
	return nil
}

// Snapshot folds every metric to a plain value keyed by its registered
// name (histograms report their observation count) — the expvar view.
func (r *Registry) Snapshot() map[string]int64 {
	names, ms := r.snapshot()
	out := make(map[string]int64, len(names))
	for _, name := range names {
		m := ms[name]
		switch {
		case m.counter != nil:
			out[name] = m.counter.Load()
		case m.gauge != nil:
			out[name] = m.gauge()
		case m.hist != nil:
			out[name] = m.hist.Count()
		}
	}
	return out
}

// expvar publication: expvar.Publish panics on duplicate names and offers
// no unpublish, so one process-lifetime variable indirects through an
// atomic pointer to whichever registry is currently live (tests and
// multi-run processes swap it freely).
var (
	liveExpvar atomic.Pointer[Registry]
	expvarOnce sync.Once
)

// publishExpvar makes r the registry backing the process's "itr_metrics"
// expvar (served at /debug/vars).
func publishExpvar(r *Registry) {
	liveExpvar.Store(r)
	expvarOnce.Do(func() {
		expvar.Publish("itr_metrics", expvar.Func(func() any {
			if reg := liveExpvar.Load(); reg != nil {
				return reg.Snapshot()
			}
			return map[string]int64{}
		}))
	})
}
