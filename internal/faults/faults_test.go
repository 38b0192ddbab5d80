package faults

import (
	"reflect"
	"testing"

	"eris/internal/metrics"
)

func TestNilInjectorNeverInjects(t *testing.T) {
	var inj *Injector
	for _, k := range Kinds() {
		if inj.Should(k) {
			t.Fatalf("nil injector injected %v", k)
		}
	}
	if inj.Injected(DropAck) != 0 || inj.Seed() != 0 {
		t.Fatal("nil injector reported activity")
	}
}

// TestNilInjectorMethodsDoNotPanic calls every exported method of
// *Injector on a nil receiver with zero-value arguments. Production code
// runs with a nil injector, so a hook without a nil-receiver guard is a
// latent panic at every injection site; reflection keeps a new method from
// escaping the check.
func TestNilInjectorMethodsDoNotPanic(t *testing.T) {
	nilInj := reflect.ValueOf((*Injector)(nil))
	typ := nilInj.Type()
	if typ.NumMethod() == 0 {
		t.Fatal("*Injector has no exported methods")
	}
	for m := 0; m < typ.NumMethod(); m++ {
		method := typ.Method(m)
		args := []reflect.Value{nilInj}
		for a := 1; a < method.Type.NumIn(); a++ {
			args = append(args, reflect.Zero(method.Type.In(a)))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("(*Injector)(nil).%s panicked: %v", method.Name, r)
				}
			}()
			method.Func.Call(args)
		}()
	}
}

func TestUnarmedKindNeverInjects(t *testing.T) {
	inj := New(1)
	for i := 0; i < 100; i++ {
		if inj.Should(CorruptFrame) {
			t.Fatal("unarmed kind injected")
		}
	}
	if got := inj.checked[CorruptFrame].Load(); got != 100 {
		t.Fatalf("checked = %d, want 100", got)
	}
}

func TestCounterRuleDeterminism(t *testing.T) {
	// After 3 events, every 2nd, at most 2 injections: events 4, 6 fail.
	decide := func() []int {
		inj := New(42)
		inj.Arm(DropAck, Rule{After: 3, Every: 2, Limit: 2})
		var hits []int
		for i := 1; i <= 12; i++ {
			if inj.Should(DropAck) {
				hits = append(hits, i)
			}
		}
		return hits
	}
	a, b := decide(), decide()
	want := []int{4, 6}
	if len(a) != len(want) || a[0] != want[0] || a[1] != want[1] {
		t.Fatalf("hits = %v, want %v", a, want)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic decisions: %v vs %v", a, b)
		}
	}
}

func TestProbRuleSeededStream(t *testing.T) {
	run := func(seed int64) []bool {
		inj := New(seed)
		inj.Arm(StallTransfer, Rule{Prob: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = inj.Should(StallTransfer)
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at event %d", i)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical decision streams")
	}
}

func TestDisarmStopsInjection(t *testing.T) {
	inj := New(1)
	inj.Arm(FailAlloc, Rule{Every: 1})
	if !inj.Should(FailAlloc) {
		t.Fatal("armed every-event rule did not inject")
	}
	inj.DisarmAll()
	if inj.Should(FailAlloc) {
		t.Fatal("disarmed kind injected")
	}
	if got := inj.Injected(FailAlloc); got != 1 {
		t.Fatalf("injected = %d, want 1", got)
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("ParseKind accepted garbage")
	}
}

func TestRegisterMetrics(t *testing.T) {
	inj := New(3)
	inj.Arm(DropAck, Rule{Every: 1, Limit: 3})
	reg := metrics.NewRegistry()
	inj.RegisterMetrics(reg)
	for i := 0; i < 5; i++ {
		inj.Should(DropAck)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["faults.injected.drop_ack"]; got != 3 {
		t.Fatalf("faults.injected.drop_ack = %d, want 3", got)
	}
	if got := snap.Counters["faults.checked.drop_ack"]; got != 5 {
		t.Fatalf("faults.checked.drop_ack = %d, want 5", got)
	}
}
