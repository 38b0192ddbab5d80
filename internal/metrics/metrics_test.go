package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.count")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d", got)
	}
	if r.Counter("x.count") != c {
		t.Fatal("get-or-create returned a new counter")
	}
	g := r.Gauge("x.level")
	g.Set(10)
	g.Add(-3)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d", got)
	}
	r.CounterFunc("x.fn", func() int64 { return 42 })
	r.GaugeFunc("x.gfn", func() int64 { return -1 })

	s := r.Snapshot()
	if s.Counter("x.count") != 5 || s.Counter("x.fn") != 42 {
		t.Fatalf("snapshot counters = %+v", s.Counters)
	}
	if s.Gauge("x.level") != 7 || s.Gauge("x.gfn") != -1 {
		t.Fatalf("snapshot gauges = %+v", s.Gauges)
	}
	if s.UnixNano == 0 {
		t.Fatal("no timestamp")
	}
}

// register calls each registration method by the name of the kind it
// registers.
var register = map[string]func(r *Registry, name string){
	"counter":      func(r *Registry, name string) { r.Counter(name) },
	"counter_func": func(r *Registry, name string) { r.CounterFunc(name, func() int64 { return 0 }) },
	"gauge":        func(r *Registry, name string) { r.Gauge(name) },
	"gauge_func":   func(r *Registry, name string) { r.GaugeFunc(name, func() int64 { return 0 }) },
	"histogram":    func(r *Registry, name string) { r.Histogram(name, []int64{1}) },
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// TestNameKindCollisionPanics registers one name twice through every pair
// of registration methods: a name keeps the kind it was registered with.
func TestNameKindCollisionPanics(t *testing.T) {
	for first, regFirst := range register {
		for second, regSecond := range register {
			r := NewRegistry()
			regFirst(r, "x.dup")
			sameKind := strings.TrimSuffix(first, "_func") == strings.TrimSuffix(second, "_func")
			if got := panics(func() { regSecond(r, "x.dup") }); got == sameKind {
				t.Errorf("%s then %s: panicked = %v, want %v", first, second, got, !sameKind)
			}
		}
	}
}

// TestRegistrationRejects pins the naming convention: every registration
// method rejects a name that is not two or more lowercase dotted segments.
func TestRegistrationRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"server.accepted", true},
		{"aeu.3.ops", true},
		{"routing.inbox.0.cas_retries", true},
		{"x.9", true},
		{"Server.Bad", false},
		{"server.Bad", false},
		{"server", false},
		{"server.", false},
		{".server", false},
		{"server..bad", false},
		{"9server.bad", false},
		{"_server.bad", false},
		{"server.bad-name", false},
		{"server.bad name", false},
		{"", false},
	} {
		for kind, reg := range register {
			if got := panics(func() { reg(NewRegistry(), tc.name) }); got == tc.ok {
				t.Errorf("%s %q: panicked = %v, want %v", kind, tc.name, got, !tc.ok)
			}
		}
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x.lat", []int64{10, 100, 1000})
	for _, v := range []int64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["x.lat"]
	want := []int64{2, 2, 0, 1} // <=10: {1,10}; <=100: {11,100}; <=1000: none; over: 5000
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 || s.Sum != 5122 {
		t.Fatalf("count %d sum %d", s.Count, s.Sum)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(100, 4, 4)
	want := []int64{100, 400, 1600, 6400}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("buckets = %v", b)
		}
	}
}

func TestDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.ops")
	g := r.Gauge("x.bytes")
	h := r.Histogram("x.ns", []int64{10, 100})
	c.Add(5)
	g.Set(100)
	h.Observe(7)
	prev := r.Snapshot()
	c.Add(3)
	g.Set(50)
	h.Observe(70)
	h.Observe(7)
	d := r.Snapshot().Delta(prev)
	if d.Counter("x.ops") != 3 {
		t.Fatalf("counter delta = %d", d.Counter("x.ops"))
	}
	if d.Gauge("x.bytes") != 50 {
		t.Fatalf("gauge delta = %d (gauges report the current level)", d.Gauge("x.bytes"))
	}
	dh := d.Histograms["x.ns"]
	if dh.Count != 2 || dh.Sum != 77 || dh.Counts[0] != 1 || dh.Counts[1] != 1 {
		t.Fatalf("hist delta = %+v", dh)
	}
	// Instruments absent from prev are reported in full.
	r.Counter("x.late").Inc()
	d = r.Snapshot().Delta(prev)
	if d.Counter("x.late") != 1 {
		t.Fatalf("late counter delta = %d", d.Counter("x.late"))
	}
}

func TestSumAndNames(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 4; i++ {
		r.Counter(fmt.Sprintf("aeu.%d.ops", i)).Add(int64(i + 1))
		r.Counter(fmt.Sprintf("aeu.%d.forwards", i)).Inc()
	}
	s := r.Snapshot()
	if got := s.SumCounters("aeu.", ".ops"); got != 10 {
		t.Fatalf("sum = %d", got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("x.a").Add(7)
	r.Gauge("x.b").Set(-2)
	r.Histogram("x.h", []int64{1}).Observe(3)
	s := r.Snapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("x.a") != 7 || back.Gauge("x.b") != -2 || back.Histograms["x.h"].Count != 1 {
		t.Fatalf("round trip = %+v", back)
	}
}

// TestConcurrentUse hammers registration, updates and snapshots from many
// goroutines; run under -race this is the registry's thread-safety proof.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter(fmt.Sprintf("w.%d.ops", w))
			h := r.Histogram("shared.lat", []int64{10, 100, 1000})
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.SumCounters("w.", ".ops"); got != 8000 {
		t.Fatalf("total ops = %d", got)
	}
	if s.Histograms["shared.lat"].Count != 8000 {
		t.Fatalf("hist count = %d", s.Histograms["shared.lat"].Count)
	}
}

func TestServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("x.hits").Add(3)
	srv, err := Serve("127.0.0.1:0", r.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/metrics", "/"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		var s Snapshot
		if err := json.Unmarshal(body, &s); err != nil {
			t.Fatalf("%s: %v (%s)", path, err, body)
		}
		if s.Counter("x.hits") != 3 {
			t.Fatalf("%s: hits = %d", path, s.Counter("x.hits"))
		}
	}
	resp, err := http.Get("http://" + srv.Addr() + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown path: status %d", resp.StatusCode)
	}
}
