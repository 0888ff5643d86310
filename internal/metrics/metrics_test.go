package metrics

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func render(r *Registry) string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := New()
	c := r.Counter("jobs_total", "Jobs processed.")
	c.Inc()
	c.Add(2)
	g := r.Gauge("temp", "Current temperature.")
	g.Add(3.5)
	g.Add(-1)
	g.Add(1)
	g.Add(-1)
	out := render(r)
	for _, want := range []string{
		"# HELP jobs_total Jobs processed.\n# TYPE jobs_total counter\njobs_total 3\n",
		"# HELP temp Current temperature.\n# TYPE temp gauge\ntemp 2.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if c.Value() != 3 || g.Value() != 2.5 {
		t.Fatalf("values: counter=%g gauge=%g", c.Value(), g.Value())
	}
}

func TestVecLabelsSortedAndEscaped(t *testing.T) {
	r := New()
	v := r.CounterVec("req_total", "Requests.", "route", "code")
	v.With("/z", "200").Inc()
	v.With("/a", "500").Add(2)
	v.With(`/q"uote`, "a\\b\nc").Inc()
	out := render(r)
	iA := strings.Index(out, `req_total{route="/a",code="500"} 2`)
	iZ := strings.Index(out, `req_total{route="/z",code="200"} 1`)
	iE := strings.Index(out, `req_total{route="/q\"uote",code="a\\b\nc"} 1`)
	if iA < 0 || iZ < 0 || iE < 0 {
		t.Fatalf("missing series (a=%d z=%d esc=%d):\n%s", iA, iZ, iE, out)
	}
	if !(iA < iE && iE < iZ) {
		t.Fatalf("series not sorted by label values:\n%s", out)
	}
	// Same label values return the same underlying series.
	if v.With("/z", "200").Value() != 1 {
		t.Fatal("vec series identity lost")
	}
}

func TestHistogramExposition(t *testing.T) {
	r := New()
	h := r.HistogramVec("lat_seconds", "Latency.", []float64{0.1, 1, math.Inf(1)}).With()
	for _, v := range []float64{0.05, 0.1, 0.5, 3} {
		h.Observe(v)
	}
	out := render(r)
	want := strings.Join([]string{
		"# HELP lat_seconds Latency.",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 2`, // le is inclusive
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		"lat_seconds_sum 3.65",
		"lat_seconds_count 4",
		"",
	}, "\n")
	if out != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", out, want)
	}
}

func TestHistogramVecAndDefBuckets(t *testing.T) {
	r := New()
	hv := r.HistogramVec("op_seconds", "Op latency.", nil, "op")
	hv.With("query").Observe(0.003)
	out := render(r)
	if !strings.Contains(out, `op_seconds_bucket{op="query",le="0.005"} 1`) {
		t.Fatalf("default buckets not applied:\n%s", out)
	}
	if !strings.Contains(out, `op_seconds_bucket{op="query",le="+Inf"} 1`) {
		t.Fatalf("+Inf bucket missing:\n%s", out)
	}
}

func TestFuncFamilies(t *testing.T) {
	r := New()
	n := 41.0
	r.CounterFunc("hub_evals_total", "Evals.", func() float64 { n++; return n })
	out := render(r)
	if !strings.Contains(out, "hub_evals_total 42\n") {
		t.Fatalf("func families:\n%s", out)
	}
}

// TestFamiliesIntrospection reads the registered families off the
// exposition: sorted by name, each with its type and one line per series.
func TestFamiliesIntrospection(t *testing.T) {
	r := New()
	v := r.CounterVec("b_total", "b", "x")
	v.With("1").Inc()
	v.With("2").Inc()
	r.Gauge("a", "a")
	r.CounterFunc("c_total", "c", func() float64 { return 0 })
	want := strings.Join([]string{
		"# HELP a a", "# TYPE a gauge", "a 0",
		"# HELP b_total b", "# TYPE b_total counter", `b_total{x="1"} 1`, `b_total{x="2"} 1`,
		"# HELP c_total c", "# TYPE c_total counter", "c_total 0",
		"",
	}, "\n")
	if out := render(r); out != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", out, want)
	}
}

func TestHandler(t *testing.T) {
	r := New()
	r.Counter("x_total", "x").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Fatalf("body:\n%s", rec.Body.String())
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := New()
	r.Counter("dup", "")
	mustPanic("duplicate", func() { r.Gauge("dup", "") })
	mustPanic("bad name", func() { r.Counter("1bad", "") })
	mustPanic("bad label", func() { r.CounterVec("v_total", "", "le") })
	mustPanic("unsorted buckets", func() { r.HistogramVec("h", "", []float64{2, 1}) })
	mustPanic("negative counter", func() { r.Counter("neg_total", "").Add(-1) })
	v := r.CounterVec("arity_total", "", "a", "b")
	mustPanic("label arity", func() { v.With("only-one") })
}

func TestConcurrentUpdates(t *testing.T) {
	r := New()
	c := r.Counter("n_total", "")
	h := r.HistogramVec("h_seconds", "", nil).With()
	v := r.CounterVec("l_total", "", "w")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i) / 1000)
				v.With("x").Inc()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 || v.With("x").Value() != 8000 {
		t.Fatalf("lost updates: c=%g v=%g", c.Value(), v.With("x").Value())
	}
	if out := render(r); !strings.Contains(out, "h_seconds_count 8000\n") {
		t.Fatalf("lost histogram updates:\n%s", out)
	}
}
