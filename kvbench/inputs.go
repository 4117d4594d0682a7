package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"strconv"
	"sync/atomic"
)

// The make-up of every workload's inputs. Each caller owns a disjoint
// set of keys, so the model below never has two writers for one key.
const (
	callers       = 32   // saturated-phase callers: twice the bridge's window of 16
	keysPerCaller = 256  // 8192 keys in all
	valueSize     = 64   // bytes per value, checksum included
	versions      = 8    // distinct pre-generated values per key, cycled by writes
	opsPerCaller  = 4096 // pre-generated operation list, cycled
)

// op is one pre-generated operation of a caller: a Get or a Put of the
// caller's key slot.
type op struct {
	get  bool
	slot uint16
}

// inputs is everything the benchmark feeds the program, generated from
// the seed before the program starts: keys, the values each key cycles
// through, and each caller's operation list.
type inputs struct {
	keys   []string   // key i is owned by caller i % callers, slot i / callers
	values [][]string // values[key][version]
	ops    [][]op     // ops[caller]
}

func keyIndex(caller, slot int) int { return slot*callers + caller }

func genInputs(seed int64, readShare float64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	n := callers * keysPerCaller
	in := &inputs{keys: make([]string, n), values: make([][]string, n), ops: make([][]op, callers)}
	seen := make(map[string]bool, n)
	for i := range in.keys {
		k := fmt.Sprintf("%016x", rng.Uint64())
		for seen[k] {
			k = fmt.Sprintf("%016x", rng.Uint64())
		}
		seen[k] = true
		in.keys[i] = k
	}
	pad := make([]byte, valueSize)
	for i := range in.values {
		in.values[i] = make([]string, versions)
		for v := range in.values[i] {
			in.values[i][v] = makeValue(rng, pad, i%callers, i/callers, v)
		}
	}
	for c := range in.ops {
		in.ops[c] = make([]op, opsPerCaller)
		for j := range in.ops[c] {
			in.ops[c][j] = op{get: rng.Float64() < readShare, slot: uint16(rng.Intn(keysPerCaller))}
		}
	}
	return in
}

// makeValue encodes (caller, key slot, version) and random padding, and
// ends with the CRC-32 of everything before it as 8 hex digits.
func makeValue(rng *rand.Rand, buf []byte, caller, slot, version int) string {
	b := fmt.Appendf(buf[:0], "c%02d.k%03d.v%d.", caller, slot, version)
	for len(b) < valueSize-8 {
		b = append(b, byte('a'+rng.Intn(26)))
	}
	b = fmt.Appendf(b, "%08x", crc32.ChecksumIEEE(b))
	return string(b)
}

// checkValue verifies a value's checksum and that it names the caller
// and slot that own the key it was read from.
func checkValue(v string, caller, slot int) error {
	if len(v) != valueSize {
		return fmt.Errorf("value %q has %d bytes, want %d", v, len(v), valueSize)
	}
	sum, err := strconv.ParseUint(v[valueSize-8:], 16, 32)
	if err != nil || uint32(sum) != crc32.ChecksumIEEE([]byte(v[:valueSize-8])) {
		return fmt.Errorf("value %q fails its checksum", v)
	}
	if want := fmt.Sprintf("c%02d.k%03d.", caller, slot); v[:len(want)] != want {
		return fmt.Errorf("value %q read from the key of caller %d slot %d", v, caller, slot)
	}
	return nil
}

// model is the benchmark's own record of the last acknowledged value of
// every key, independent of the program. A key's entry is written only
// by the goroutine issuing that key's writes, but the failover stream
// and read-backs touch keys from other goroutines, so entries are
// atomic.
//
// An entry holds the acknowledged version, or, after a Put that failed
// and so may or may not have committed, both candidates until the next
// acknowledged Put settles it.
type model struct {
	entries []atomic.Uint32
}

const doubtBit = 1 << 16

func newModel(n int) *model { return &model{entries: make([]atomic.Uint32, n)} }

// next reports the version the key's next Put writes: one past the
// newest value the key may hold.
func (m *model) next(key int) int {
	e := m.entries[key].Load()
	v := e & 0xff
	if e&doubtBit != 0 {
		v = (e >> 8) & 0xff
	}
	return int(v+1) % versions
}

func (m *model) acked(key, version int) { m.entries[key].Store(uint32(version)) }

func (m *model) failed(key, version int) {
	old := m.entries[key].Load() & 0xff
	m.entries[key].Store(doubtBit | uint32(version)<<8 | old)
}

// matches reports whether a read of key returned a value the model
// allows.
func (m *model) matches(in *inputs, key int, got string) bool {
	e := m.entries[key].Load()
	if got == in.values[key][e&0xff] {
		return true
	}
	return e&doubtBit != 0 && got == in.values[key][(e>>8)&0xff]
}
