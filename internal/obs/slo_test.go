package obs

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives("get=2ms@0.999, set=10ms@0.99,DELETE=5ms")
	if err != nil {
		t.Fatal(err)
	}
	want := []Objective{
		{Verb: "get", Target: 2 * time.Millisecond, Goal: 0.999},
		{Verb: "set", Target: 10 * time.Millisecond, Goal: 0.99},
		{Verb: "delete", Target: 5 * time.Millisecond, Goal: 0.999}, // default goal
	}
	if len(objs) != len(want) {
		t.Fatalf("parsed %d objectives, want %d", len(objs), len(want))
	}
	for i, o := range objs {
		if o != want[i] {
			t.Fatalf("objective %d = %+v, want %+v", i, o, want[i])
		}
	}
	for _, bad := range []string{"get", "get=fast", "get=0s", "get=2ms@1.5", "get=2ms@0", "get=2ms@x",
		"get=1ms,get=2ms", "get=1ms,GET=2ms", "get=2ms@NaN", "get=2ms@Inf", "=2ms", " =2ms"} {
		if _, err := ParseObjectives(bad); err == nil {
			t.Errorf("ParseObjectives(%q) accepted", bad)
		}
	}
	if objs, err := ParseObjectives(""); err != nil || objs != nil {
		t.Fatalf("empty spec: %v, %v", objs, err)
	}
}

func TestSLONilSafety(t *testing.T) {
	var tr *SLOTracker
	tr.Start()
	tr.Stop()
	v := tr.Verb("get")
	if v != nil {
		t.Fatal("nil tracker returned a verb")
	}
	v.ObserveN(time.Millisecond, 5) // must not panic
}

func TestBurnRateMath(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{Objectives: []Objective{
		{Verb: "get", Target: time.Millisecond, Goal: 0.9},
	}})
	v := tr.Verb("get")
	if v == nil {
		t.Fatal("tracked verb not found")
	}
	if tr.Verb("set") != nil {
		t.Fatal("untracked verb resolved")
	}

	// 80 good, 20 bad → bad fraction 0.2, budget 0.1, burn 2.0.
	v.ObserveN(500*time.Microsecond, 80)
	v.ObserveN(2*time.Millisecond, 20)
	tr.tick()
	if burn := v.BurnRate(); math.Abs(burn-2.0) > 1e-9 {
		t.Fatalf("burn = %v, want 2.0", burn)
	}

	// A quiet window resets the burn (no traffic, no budget consumed).
	tr.tick()
	if burn := v.BurnRate(); burn != 0 {
		t.Fatalf("burn after idle window = %v, want 0", burn)
	}

	// Exactly on target counts as good: burn stays 0.
	v.ObserveN(time.Millisecond, 50)
	tr.tick()
	if burn := v.BurnRate(); burn != 0 {
		t.Fatalf("burn with all-good window = %v, want 0", burn)
	}
}

func TestSustainedBurnCapturesProfiles(t *testing.T) {
	dir := t.TempDir()
	tr := NewSLOTracker(SLOConfig{
		Objectives:      []Objective{{Verb: "get", Target: time.Millisecond, Goal: 0.99}},
		BurnTrigger:     1.0,
		BurnWindows:     2,
		ProfileDir:      dir,
		ProfileDuration: 10 * time.Millisecond,
	})
	v := tr.Verb("get")

	// One hot window arms; the second fires.
	v.ObserveN(5*time.Millisecond, 100)
	tr.tick()
	if tr.Captures() != 0 {
		t.Fatal("profile captured after a single hot window")
	}
	v.ObserveN(5*time.Millisecond, 100)
	tr.tick()

	deadline := time.Now().Add(5 * time.Second)
	for tr.Captures() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sustained burn never captured a profile")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cpus, _ := filepath.Glob(filepath.Join(dir, "slo_burn_cpu_*.pprof"))
	mtxs, _ := filepath.Glob(filepath.Join(dir, "slo_burn_mutex_*.pprof"))
	if len(cpus) != 1 || len(mtxs) != 1 {
		t.Fatalf("profiles on disk: cpu=%v mutex=%v, want one of each", cpus, mtxs)
	}
	if fi, err := os.Stat(cpus[0]); err != nil || fi.Size() == 0 {
		t.Fatalf("cpu profile empty: %v %v", fi, err)
	}
}

func TestCaptureDisabledWithoutProfileDir(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{
		Objectives:  []Objective{{Verb: "get", Target: time.Millisecond, Goal: 0.99}},
		BurnTrigger: 1.0,
		BurnWindows: 1,
	})
	v := tr.Verb("get")
	v.ObserveN(5*time.Millisecond, 10)
	tr.tick()
	time.Sleep(20 * time.Millisecond)
	if tr.Captures() != 0 {
		t.Fatal("capture fired with no ProfileDir")
	}
}

func TestNewSLOTrackerEmpty(t *testing.T) {
	if tr := NewSLOTracker(SLOConfig{}); tr != nil {
		t.Fatal("tracker built with no objectives")
	}
}

func TestSLOTrackerStartStop(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{
		Objectives: []Objective{{Verb: "get", Target: time.Millisecond, Goal: 0.99}},
		Window:     5 * time.Millisecond,
	})
	tr.Verb("get").ObserveN(5*time.Millisecond, 100)
	tr.Start()
	tr.Start() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for tr.Verb("get").BurnRate() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ticker never evaluated a window")
		}
		time.Sleep(time.Millisecond)
	}
	tr.Stop()
	tr.Stop() // idempotent
}

func TestSLOGoodCounting(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{Objectives: []Objective{
		{Verb: "get", Target: 2 * time.Millisecond, Goal: 0.999},
	}})
	v := tr.Verb("get")
	v.ObserveN(time.Millisecond, 3)   // good
	v.ObserveN(3*time.Millisecond, 2) // bad
	reg := NewRegistry()
	tr.MetricsInto(reg, nil)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		`slo_good_total{verb="get"} 3`,
		`slo_requests_total{verb="get"} 5`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}
