// Package metrics is a dependency-free Prometheus metric registry: the
// three standard instrument kinds (counter, gauge, histogram), optional
// label dimensions, callback-backed families for externally-maintained
// cumulative stats (the continuous hub's dirty-set counters, the WAL's
// append/snapshot counters), and the text exposition format 0.0.4 served
// at GET /metrics. It exists because go.mod carries zero dependencies —
// the serving tier needs the observability shape of client_golang, not
// its surface area.
//
// Exposition is deterministic: families sort by name, series by label
// values, so /metrics output can be golden-tested. Registration is
// programmer-facing and panics on misuse (duplicate names, malformed
// identifiers, label arity mismatches), like client_golang's Must*
// variants.
package metrics

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default histogram buckets (seconds), matching the
// Prometheus client defaults: latency from sub-10ms to 10s.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// value is a float64 updated atomically (CAS on the bit pattern).
type value struct{ bits atomic.Uint64 }

func (v *value) Add(f float64) {
	for {
		old := v.bits.Load()
		if v.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+f)) {
			return
		}
	}
}
func (v *value) Set(f float64) { v.bits.Store(math.Float64bits(f)) }
func (v *value) Get() float64  { return math.Float64frombits(v.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ v value }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter; negative deltas panic (counters only go up).
func (c *Counter) Add(f float64) {
	if f < 0 {
		panic(fmt.Sprintf("metrics: counter decreased by %g", f))
	}
	c.v.Add(f)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Get() }

// Gauge is a value that can go up and down.
type Gauge struct{ v value }

// Set replaces the value.
func (g *Gauge) Set(f float64) { g.v.Set(f) }

// Add shifts the value by f (negative allowed).
func (g *Gauge) Add(f float64) { g.v.Add(f) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Get() }

// Histogram accumulates observations into cumulative buckets.
type Histogram struct {
	mu      sync.Mutex
	uppers  []float64 // sorted upper bounds, exclusive of +Inf
	counts  []uint64  // per-bucket (non-cumulative); len == len(uppers)+1
	sum     float64
	samples uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.uppers, v) // first upper >= v (le semantics)
	h.counts[i]++
	h.sum += v
	h.samples++
	h.mu.Unlock()
}

// Count returns how many samples were observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.samples
}

// family kinds in exposition order of their TYPE line.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one metric name: its metadata plus every labeled series.
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64      // histogram families only
	fn      func() float64 // callback-backed families only

	mu     sync.Mutex
	series map[string]*series
	order  []string // insertion keys, sorted at exposition
}

type series struct {
	values []string // label values, parallel to family.labels
	ctr    *Counter
	gge    *Gauge
	hst    *Histogram
}

// getSeries returns (creating if needed) the series for the label values.
func (f *family) getSeries(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{values: append([]string(nil), values...)}
	switch f.typ {
	case typeCounter:
		s.ctr = &Counter{}
	case typeGauge:
		s.gge = &Gauge{}
	case typeHistogram:
		s.hst = &Histogram{
			uppers: f.buckets,
			counts: make([]uint64, len(f.buckets)+1),
		}
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// CounterVec is a counter family with label dimensions.
type CounterVec struct{ f *family }

// With returns the counter for the label values (created on first use).
func (v *CounterVec) With(values ...string) *Counter { return v.f.getSeries(values).ctr }

// GaugeVec is a gauge family with label dimensions.
type GaugeVec struct{ f *family }

// With returns the gauge for the label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.getSeries(values).gge }

// HistogramVec is a histogram family with label dimensions.
type HistogramVec struct{ f *family }

// With returns the histogram for the label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.getSeries(values).hst }

// Registry holds metric families and renders the exposition.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*family
}

// New returns an empty registry.
func New() *Registry { return &Registry{byName: make(map[string]*family)} }

var nameOK = func(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func (r *Registry) register(name, help, typ string, labels []string, buckets []float64, fn func() float64) *family {
	if !nameOK(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameOK(l) || l == "le" {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l, name))
		}
	}
	if typ == typeHistogram {
		if len(buckets) == 0 {
			buckets = DefBuckets
		}
		if !sort.Float64sAreSorted(buckets) {
			panic(fmt.Sprintf("metrics: %s: histogram buckets must be sorted", name))
		}
		// A trailing +Inf is implicit; strip an explicit one.
		if math.IsInf(buckets[len(buckets)-1], 1) {
			buckets = buckets[:len(buckets)-1]
		}
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		fn:      fn,
		series:  make(map[string]*series),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", name))
	}
	r.byName[name] = f
	return f
}

// Counter registers an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, typeCounter, nil, nil, nil).getSeries(nil).ctr
}

// CounterVec registers a counter family with label dimensions.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, typeCounter, labels, nil, nil)}
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, typeGauge, nil, nil, nil).getSeries(nil).gge
}

// GaugeVec registers a gauge family with label dimensions.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, typeGauge, labels, nil, nil)}
}

// Histogram registers an unlabeled histogram (nil buckets = DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, typeHistogram, nil, buckets, nil).getSeries(nil).hst
}

// HistogramVec registers a histogram family with label dimensions.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, typeHistogram, labels, buckets, nil)}
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for cumulative stats an existing subsystem already maintains
// (hub evals/skips, WAL appends) without double bookkeeping.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, typeCounter, nil, nil, fn)
}

// FamilyInfo describes one registered family — the introspection the
// label-cardinality guard tests against.
type FamilyInfo struct {
	Name   string
	Type   string
	Labels []string
	Series int
}

// Families lists registered families sorted by name.
func (r *Registry) Families() []FamilyInfo {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.byName))
	for _, f := range r.byName {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	out := make([]FamilyInfo, len(fams))
	for i, f := range fams {
		f.mu.Lock()
		n := len(f.series)
		f.mu.Unlock()
		if f.fn != nil {
			n = 1
		}
		out[i] = FamilyInfo{Name: f.name, Type: f.typ, Labels: append([]string(nil), f.labels...), Series: n}
	}
	return out
}

// WriteText renders the registry in Prometheus text exposition format
// 0.0.4: families sorted by name, series sorted by label values.
func (r *Registry) WriteText(w *strings.Builder) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.byName))
	for _, f := range r.byName {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		if f.fn != nil {
			fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.fn()))
			continue
		}
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		sers := make([]*series, len(keys))
		for i, k := range keys {
			sers[i] = f.series[k]
		}
		f.mu.Unlock()
		sort.Slice(sers, func(i, j int) bool {
			return strings.Join(sers[i].values, "\xff") < strings.Join(sers[j].values, "\xff")
		})
		for _, s := range sers {
			switch f.typ {
			case typeCounter:
				fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, s.values, "", ""), formatFloat(s.ctr.Value()))
			case typeGauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, s.values, "", ""), formatFloat(s.gge.Value()))
			case typeHistogram:
				writeHistogram(w, f, s)
			}
		}
	}
}

func writeHistogram(w *strings.Builder, f *family, s *series) {
	h := s.hst
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, samples := h.sum, h.samples
	h.mu.Unlock()
	var cum uint64
	for i, upper := range h.uppers {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
			labelString(f.labels, s.values, "le", formatFloat(upper)), cum)
	}
	cum += counts[len(counts)-1]
	fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.values, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, s.values, "", ""), formatFloat(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, s.values, "", ""), samples)
}

// labelString renders {a="x",b="y"} with an optional extra pair (the
// histogram le bound); empty when there are no labels at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the exposition at any path it is mounted on.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var b strings.Builder
		r.WriteText(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})
}
