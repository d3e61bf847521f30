package znscache

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"znscache/internal/cache"
	"znscache/internal/harness"
	"znscache/internal/sim"
)

func TestOpenAllSchemes(t *testing.T) {
	for _, s := range []Scheme{BlockCache, FileCache, ZoneCache, RegionCache} {
		c, err := Open(Config{Scheme: s, Zones: 12, TrackValues: true})
		if err != nil {
			t.Fatalf("Open(%v): %v", s, err)
		}
		want := []byte("hello zns")
		if err := c.Set("k", want); err != nil {
			t.Fatalf("%v Set: %v", s, err)
		}
		got, ok, err := c.Get("k")
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("%v Get = (%q, %v, %v)", s, got, ok, err)
		}
		if !c.Contains("k") || c.Contains("absent") {
			t.Fatalf("%v Contains wrong", s)
		}
		if !c.Delete("k") {
			t.Fatalf("%v Delete failed", s)
		}
		st := c.Stats()
		if st.Scheme != s || st.Sets != 1 || st.Hits != 1 {
			t.Fatalf("%v stats = %+v", s, st)
		}
		if st.WriteAmplification < 1 {
			t.Fatalf("%v WA = %v", s, st.WriteAmplification)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	c, err := Open(Config{})
	if err != nil {
		t.Fatalf("Open defaults: %v", err)
	}
	if c.Rig(0).Scheme != RegionCache {
		t.Fatalf("default scheme = %v", c.Rig(0).Scheme)
	}
	if err := c.SetSized("k", 1000); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get("k"); err != nil || !ok || v != nil {
		t.Fatalf("metadata Get = (%v, %v, %v)", v, ok, err)
	}
}

func TestClosedCache(t *testing.T) {
	c, err := Open(Config{Zones: 8})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Set("k", nil); err != ErrClosed {
		t.Fatalf("Set after close err = %v", err)
	}
	if _, _, err := c.Get("k"); err != ErrClosed {
		t.Fatalf("Get after close err = %v", err)
	}
	if c.Delete("k") || c.Contains("k") {
		t.Fatal("ops after close succeeded")
	}
}

func TestEvictionAndTimeAdvance(t *testing.T) {
	c, err := Open(Config{Scheme: RegionCache, Zones: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40_000; i++ {
		if err := c.SetSized(fmt.Sprintf("key-%06d", i), 4096); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("filling past capacity never evicted")
	}
	if c.SimulatedTime() == 0 {
		t.Fatal("virtual clock did not advance")
	}
	if st.Items >= 40_000 {
		t.Fatalf("Items = %d, want below insert count after eviction", st.Items)
	}
}

func TestKVWithSecondaryCache(t *testing.T) {
	kv, err := OpenKV(KVConfig{Scheme: RegionCache, StoreValues: true})
	if err != nil {
		t.Fatalf("OpenKV: %v", err)
	}
	if err := kv.Put("alpha", []byte("one")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := kv.Get("alpha")
	if err != nil || !ok || string(v) != "one" {
		t.Fatalf("Get = (%q, %v, %v)", v, ok, err)
	}
	if err := kv.Flush(); err != nil {
		t.Fatal(err)
	}
	// Read through the hierarchy enough to exercise the secondary cache.
	for i := 0; i < 3000; i++ {
		kv.PutSized(fmt.Sprintf("key-%06d", i), 64)
	}
	kv.Flush()
	for i := 0; i < 3000; i++ {
		if _, ok, err := kv.Get(fmt.Sprintf("key-%06d", i)); err != nil || !ok {
			t.Fatalf("Get key-%06d = (%v, %v)", i, ok, err)
		}
	}
	st := kv.Stats()
	if st.SecondaryLookups == 0 {
		t.Fatal("secondary cache never consulted")
	}
	if st.CacheStats == nil {
		t.Fatal("cache stats missing")
	}
	if kv.SimulatedTime() == 0 {
		t.Fatal("clock did not advance")
	}
}

func TestKVWithoutSecondary(t *testing.T) {
	kv, err := OpenKV(KVConfig{DisableSecondary: true})
	if err != nil {
		t.Fatal(err)
	}
	kv.PutSized("k", 64)
	if _, ok, _ := kv.Get("k"); !ok {
		t.Fatal("Get missed")
	}
	if err := kv.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := kv.Get("k"); ok {
		t.Fatal("deleted key visible")
	}
	if st := kv.Stats(); st.CacheStats != nil {
		t.Fatal("cache stats present without secondary")
	}
}

func TestKVScan(t *testing.T) {
	kv, err := OpenKV(KVConfig{DisableSecondary: true, StoreValues: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		kv.Put(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	kv.Flush()
	kv.Delete("key-025")
	var got []string
	if err := kv.Scan("key-020", "key-030", func(k string, v []byte) bool {
		got = append(got, k)
		if len(v) == 0 {
			t.Fatalf("empty value at %s", k)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 {
		t.Fatalf("scan returned %v, want 9 keys without key-025", got)
	}
	for _, k := range got {
		if k == "key-025" {
			t.Fatal("deleted key in scan")
		}
	}
	// Early termination.
	count := 0
	kv.Scan("", "", func(string, []byte) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early-stop scan visited %d", count)
	}
}

// TestOpenMatchesBareEngine: one seeded stream of sets, sized and TTL sets,
// deletes, gets, contains and clock advances goes through Open(cfg) and the
// engine harness.Build makes of the RigConfig Open's defaults spell out (80%
// of the device as cache, the admission seed as given); every answer and the
// final Stats must be identical. Runs with values write small items.
func TestOpenMatchesBareEngine(t *testing.T) {
	pay := bytes.Repeat([]byte("0123456789abcdef"), 1100)
	for _, s := range []Scheme{BlockCache, FileCache, ZoneCache, RegionCache} {
		for _, values := range []bool{false, true} {
			cfg := Config{Scheme: s, Zones: 4, TrackValues: values,
				Admission: cache.ProbAdmitFactory{P: 0.9}, AdmissionSeed: 7}
			c, err := Open(cfg)
			if err != nil {
				t.Fatalf("Open(%v): %v", s, err)
			}
			hw := harness.DefaultHW(4)
			rc := harness.RigConfig{Scheme: s, HW: hw, CacheBytes: 4 * hw.ZoneBytes() * 8 / 10,
				TrackValues: values, Admission: cfg.Admission, AdmissionSeed: 7}
			if s == ZoneCache {
				rc.ZoneCount = int(rc.CacheBytes / hw.ZoneBytes())
			}
			rig, err := harness.Build(rc)
			if err != nil {
				t.Fatalf("Build(%v): %v", s, err)
			}
			eng, maxLen := rig.Engine, map[bool]uint64{false: 16 << 10, true: 1 << 10}[values]
			rng := sim.NewRand(uint64(s) + 1)
			for i := 0; i < 30_000; i++ {
				r := rng.Uint64()
				k, n := fmt.Sprintf("key-%d", r%8192), 1+int(r>>16%maxLen)
				v, ttl := pay[i%16:][:n], time.Duration(1+r>>48%3)*time.Second
				var got, want any
				switch r >> 32 % 16 {
				case 0, 1, 2, 3, 4, 5:
					got, want = answer(c.Get(k)), answer(eng.Get(k))
				case 6, 7:
					got, want = c.Set(k, v), eng.Set(k, v, 0)
				case 8, 9:
					got, want = c.SetSized(k, n), eng.Set(k, nil, n)
				case 10:
					got, want = c.SetWithTTL(k, v, ttl), eng.SetTTL(k, v, 0, ttl)
				case 11:
					got, want = c.Delete(k), eng.Delete(k)
				case 12:
					got, want = c.Contains(k), eng.Contains(k)
				default:
					c.Rig(0).Clock.Advance(ttl / 3)
					rig.Clock.Advance(ttl / 3)
				}
				if got != want {
					t.Fatalf("%v (values %v) op %d on %s: Open answered %v, the engine %v", s, values, i, k, got, want)
				}
			}
			st := eng.Stats()
			want := Stats{Scheme: s, Items: eng.Len(), HitRatio: st.HitRatio,
				Hits: st.Hits, Misses: st.Misses, Sets: st.Sets, Deletes: st.Deletes,
				Evictions: st.Evictions, AdmitRejects: st.AdmitRejects, WriteAmplification: rig.WAFactor(),
				GetP50: st.GetLatency.P50, GetP99: st.GetLatency.P99, SimulatedTime: st.SimulatedTime}
			if got := c.Stats(); got != want {
				t.Fatalf("%v (values %v) Stats differ:\nOpen   %+v\nengine %+v", s, values, got, want)
			}
			if want.Hits == 0 || want.AdmitRejects == 0 || !values && want.Evictions == 0 {
				t.Fatalf("%v (values %v): the stream exercised too little: %+v", s, values, want)
			}
		}
	}
}

// answer makes a Get's results one comparable value.
func answer(v []byte, ok bool, err error) [3]any { return [3]any{string(v), ok, err} }
