package fault

import (
	"errors"
	"strings"
	"testing"
	"time"

	"znscache/internal/device"
	"znscache/internal/flash"
	"znscache/internal/obs"
	"znscache/internal/zns"
)

// fakeBlock is a minimal block device recording the writes that reach it.
type fakeBlock struct {
	size   int64
	writes []int // sectors per write that landed
}

func (f *fakeBlock) ReadAt(now time.Duration, p []byte, off int64) (time.Duration, error) {
	return 0, nil
}

func (f *fakeBlock) WriteAt(now time.Duration, data []byte, n int, off int64) (time.Duration, error) {
	f.writes = append(f.writes, n/device.SectorSize)
	return 0, nil
}

func (f *fakeBlock) Size() int64 { return f.size }

// schedule runs a fixed op sequence through a wrapped fake device and
// returns the per-op error outcomes.
func schedule(inj *Injector, ops int) []error {
	dev := WrapBlock(&fakeBlock{size: 1 << 20}, inj)
	buf := make([]byte, 4*device.SectorSize)
	out := make([]error, 0, 2*ops)
	for i := 0; i < ops; i++ {
		_, err := dev.WriteAt(0, buf, len(buf), 0)
		out = append(out, err)
		_, err = dev.ReadAt(0, buf[:device.SectorSize], 0)
		out = append(out, err)
	}
	return out
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	cfg := Config{Seed: 42, ReadErrorRate: 0.2, WriteErrorRate: 0.2, TornWriteRate: 0.2}
	a := schedule(NewInjector(cfg), 200)
	b := schedule(NewInjector(cfg), 200)
	faults := 0
	for i := range a {
		if !errors.Is(a[i], ErrInjected) && a[i] != nil {
			t.Fatalf("op %d: unexpected error class %v", i, a[i])
		}
		if (a[i] == nil) != (b[i] == nil) || (a[i] != nil && a[i].Error() != b[i].Error()) {
			t.Fatalf("same seed diverged at op %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] != nil {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("no faults fired at 20% rates over 400 ops")
	}
	cfg.Seed = 43
	c := schedule(NewInjector(cfg), 200)
	same := true
	for i := range a {
		if (a[i] == nil) != (c[i] == nil) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the identical fault schedule")
	}
}

func TestTornWritePersistsPrefix(t *testing.T) {
	fb := &fakeBlock{size: 1 << 20}
	dev := WrapBlock(fb, NewInjector(Config{Seed: 7, TornWriteRate: 1}))
	buf := make([]byte, 8*device.SectorSize)
	sawPrefix := false
	for i := 0; i < 64 && !sawPrefix; i++ {
		_, err := dev.WriteAt(0, buf, len(buf), 0)
		if !errors.Is(err, ErrTorn) {
			t.Fatalf("write %d: err = %v, want ErrTorn", i, err)
		}
		if !errors.Is(err, ErrInjected) {
			t.Fatal("ErrTorn must wrap ErrInjected (torn writes are retryable)")
		}
		for _, sectors := range fb.writes {
			if sectors <= 0 || sectors >= 8 {
				t.Fatalf("torn prefix of %d sectors escaped [1, 7]", sectors)
			}
			sawPrefix = true
		}
		fb.writes = nil
	}
	if !sawPrefix {
		t.Fatal("64 torn writes never persisted a non-empty prefix")
	}
}

func TestCrashReviveAndArm(t *testing.T) {
	fb := &fakeBlock{size: 1 << 20}
	inj := NewInjector(Config{Seed: 3, CrashAfterWrites: 3})
	dev := WrapBlock(fb, inj)
	buf := make([]byte, device.SectorSize)
	for i := 0; i < 2; i++ {
		if _, err := dev.WriteAt(0, buf, len(buf), 0); err != nil {
			t.Fatalf("pre-crash write %d: %v", i, err)
		}
	}
	if _, err := dev.WriteAt(0, buf, len(buf), 0); !errors.Is(err, ErrCrash) {
		t.Fatalf("3rd write err = %v, want ErrCrash", err)
	}
	if !inj.Crashed() {
		t.Fatal("injector not crashed after the trigger write")
	}
	// Everything fails while crashed, reads and later writes alike.
	if _, err := dev.ReadAt(0, buf, 0); !errors.Is(err, ErrCrash) {
		t.Fatalf("post-crash read err = %v", err)
	}
	if _, err := dev.WriteAt(0, buf, len(buf), 0); !errors.Is(err, ErrCrash) {
		t.Fatalf("post-crash write err = %v", err)
	}

	inj.Revive()
	if inj.Crashed() {
		t.Fatal("Revive left the injector crashed")
	}
	for i := 0; i < 8; i++ {
		if _, err := dev.WriteAt(0, buf, len(buf), 0); err != nil {
			t.Fatalf("post-revive write %d: %v (trigger must not re-fire)", i, err)
		}
	}

	// Re-arm relative to the current absolute write count.
	inj.ArmCrash(inj.Writes() + 2)
	if _, err := dev.WriteAt(0, buf, len(buf), 0); err != nil {
		t.Fatalf("write before re-armed crash: %v", err)
	}
	if _, err := dev.WriteAt(0, buf, len(buf), 0); !errors.Is(err, ErrCrash) {
		t.Fatalf("re-armed crash write err = %v, want ErrCrash", err)
	}
}

// badZoned wraps a healthy device but lies about zone 0's state, so the
// invariant checker has a real violation to catch.
type badZoned struct {
	zns.Zoned
	lie func(*zns.Zone)
}

func (b *badZoned) ZoneInfo(z int) (zns.Zone, error) {
	info, err := b.Zoned.ZoneInfo(z)
	if z == 0 && err == nil {
		b.lie(&info)
	}
	return info, err
}

func TestCheckZoneContractDetectsViolation(t *testing.T) {
	dev, err := zns.New(zns.Config{
		Geometry: flash.Geometry{
			Channels: 2, DiesPerChan: 2, BlocksPerDie: 16,
			PagesPerBlock: 16, PageSize: device.SectorSize,
		},
		Timing:        flash.DefaultTiming(),
		BlocksPerZone: 4, MaxOpenZones: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Zone 0 really is open, so the open and active counts agree with the
	// lie in the second row and only the write-pointer rule can catch it.
	if _, err := dev.Write(0, nil, device.SectorSize, 0); err != nil {
		t.Fatal(err)
	}
	if err := CheckZoneContract(dev); err != nil {
		t.Fatalf("healthy device flagged: %v", err)
	}
	for _, tc := range []struct {
		name string
		lie  func(*zns.Zone)
		want string
	}{
		{"empty zone with wp past the zone size", func(info *zns.Zone) {
			info.State = zns.ZoneEmpty
			info.WP = dev.ZoneSize() + 1
		}, "zone 0: EMPTY with wp"},
		{"open zone at wp 0", func(info *zns.Zone) {
			info.WP = 0
		}, "zone 0: OPEN with wp 0"},
	} {
		err := CheckZoneContract(&badZoned{Zoned: dev, lie: tc.lie})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to report %q", tc.name, err, tc.want)
		}
	}
}

func TestInjectorMetricsExposed(t *testing.T) {
	inj := NewInjector(Config{Seed: 1, WriteErrorRate: 1})
	dev := WrapBlock(&fakeBlock{size: 1 << 20}, inj)
	buf := make([]byte, device.SectorSize)
	for i := 0; i < 5; i++ {
		if _, err := dev.WriteAt(0, buf, len(buf), 0); !errors.Is(err, ErrInjected) {
			t.Fatalf("write %d err = %v", i, err)
		}
	}
	reg := obs.NewRegistry()
	inj.MetricsInto(reg, obs.Labels{})
	total, byKind := -1.0, -1.0
	for _, s := range reg.Gather() {
		if s.Name != "fault_injected_total" {
			continue
		}
		if k := s.Labels.Get("kind"); k == "" {
			total = s.Value
		} else if k == "write_error" {
			byKind = s.Value
		}
	}
	if total != 5 || byKind != 5 {
		t.Fatalf("fault_injected_total = %v (write_error %v), want 5 and 5", total, byKind)
	}
}
