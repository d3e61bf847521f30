package zns_test

import (
	"math/rand"
	"testing"
)

// FuzzZoneOps feeds arbitrary byte streams through the same op decoder the
// state-machine suite uses: byte 0 selects one of the four budget
// configurations, every following 3-byte group decodes into a zone op
// (write/read/reset/finish/close) addressed relative to the current
// write pointer. Each op is cross-checked against the reference model —
// error class, zone state, write pointer, budget counters, read-back data —
// and the full zone contract is audited after
// every step, so the fuzzer hunts for any input ordering that desyncs the
// device from the ZNS state diagram. The committed corpus under
// testdata/fuzz/FuzzZoneOps seeds lifecycle-heavy sequences for each
// configuration.
func FuzzZoneOps(f *testing.F) {
	// One deterministic pseudo-random stream per budget configuration, plus
	// a handcrafted lifecycle (write-heavy, then finish/reset-heavy).
	for cfg := 0; cfg < 4; cfg++ {
		raw := make([]byte, 1+3*24)
		raw[0] = byte(cfg)
		rand.New(rand.NewSource(int64(cfg))).Read(raw[1:])
		f.Add(raw)
	}
	lifecycle := []byte{2} // open1-active2
	for i := 0; i < 16; i++ {
		lifecycle = append(lifecycle, byte(i*7), byte(i), byte(i*13)) // mostly writes and reads
	}
	for i := 0; i < 8; i++ {
		lifecycle = append(lifecycle, 65+byte(i*5)%35, byte(i), byte(i)) // resets/finishes/closes
	}
	f.Add(lifecycle)
	f.Add([]byte{0})           // no ops
	f.Add([]byte{3, 90, 0, 9}) // lone close of an empty zone
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		budgets := smBudgets()
		b := budgets[int(raw[0])%len(budgets)]
		dev := smDevice(t, b)
		smRun(t, b, dev, dev, raw[1:], false)
	})
}
