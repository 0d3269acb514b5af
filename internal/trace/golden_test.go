package trace

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"lfsc/internal/rng"
)

// goldenSlots is how many slots each generator digest covers.
const goldenSlots = 50

// slotDigester folds generated slots into one FNV-64a digest: every
// task field's exact bits in slot order, then every coverage row with its
// length. Two generators agree on the digest only if they agree on every
// draw that shaped the workload.
type slotDigester struct {
	h   hash.Hash64
	buf [8]byte
}

func newSlotDigester() *slotDigester { return &slotDigester{h: fnv.New64a()} }

func (d *slotDigester) word(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *slotDigester) slot(s *Slot) {
	d.word(uint64(len(s.Tasks)))
	for _, tk := range s.Tasks {
		d.word(uint64(tk.ID))
		d.word(uint64(tk.WD))
		d.word(math.Float64bits(tk.InputMbit))
		d.word(math.Float64bits(tk.OutputMbit))
		lat := uint64(0)
		if tk.LatencySensitive {
			lat = 1
		}
		d.word(lat)
		d.word(uint64(tk.Resource))
		d.word(uint64(tk.DurationSlots))
	}
	d.word(uint64(len(s.Coverage)))
	for _, row := range s.Coverage {
		d.word(uint64(len(row)))
		for _, i := range row {
			d.word(uint64(i))
		}
	}
}

// goldenGenerators are the configurations whose digests are pinned, each
// with the digest captured before the generation loop and the draw path
// were last rewritten.
var goldenGenerators = []struct {
	name string
	mk   func() (IntoGenerator, error)
	want uint64
}{
	{"default", func() (IntoGenerator, error) {
		return NewSynthetic(DefaultSyntheticConfig(), rng.New(42))
	}, 0x13fb6e4e42f1bd37},
	{"heavy", func() (IntoGenerator, error) {
		cfg := DefaultSyntheticConfig()
		cfg.Heavy = true
		return NewSynthetic(cfg, rng.New(43))
	}, 0xf279e1bcf87ce00c},
	{"multislot", func() (IntoGenerator, error) {
		cfg := DefaultSyntheticConfig()
		cfg.MultiSlotFrac = 0.3
		cfg.MaxDuration = 4
		return NewSynthetic(cfg, rng.New(44))
	}, 0xb87ab964138f02c4},
	{"stress/diurnal", func() (IntoGenerator, error) {
		return NewStress(StressConfig{Base: DefaultSyntheticConfig(), Kind: Diurnal, PeriodSlots: 20}, rng.New(45))
	}, 0x7185063549ce62c9},
	{"stress/hotspot", func() (IntoGenerator, error) {
		return NewStress(StressConfig{Base: DefaultSyntheticConfig(), Kind: Hotspot, PeriodSlots: 10}, rng.New(46))
	}, 0x715b87e4e932fdf7},
	// Period 20 puts the first burst inside the digested slots, so the
	// narrow-band overrides are covered too.
	{"stress/flashcrowd", func() (IntoGenerator, error) {
		return NewStress(StressConfig{Base: DefaultSyntheticConfig(), Kind: FlashCrowd, PeriodSlots: 20, BurstSlots: 10}, rng.New(47))
	}, 0x21420c05cbbdf1d4},
}

// TestGeneratorDigestGoldens pins the first goldenSlots slots of each
// generator through the pooled NextInto that sim.Run and the serving
// replayer call, and requires the allocating Next to produce the same
// digest from a fresh generator.
func TestGeneratorDigestGoldens(t *testing.T) {
	for _, gg := range goldenGenerators {
		pooled, err := gg.mk()
		if err != nil {
			t.Fatal(err)
		}
		var s Slot
		dp := newSlotDigester()
		for slot := 0; slot < goldenSlots; slot++ {
			pooled.NextInto(slot, &s)
			dp.slot(&s)
		}
		fresh, err := gg.mk()
		if err != nil {
			t.Fatal(err)
		}
		dn := newSlotDigester()
		for slot := 0; slot < goldenSlots; slot++ {
			dn.slot(fresh.Next(slot))
		}
		got, viaNext := dp.h.Sum64(), dn.h.Sum64()
		if got != gg.want {
			t.Errorf("%s: NextInto digest %#016x, golden %#016x", gg.name, got, gg.want)
		}
		if viaNext != got {
			t.Errorf("%s: Next digest %#016x != NextInto digest %#016x", gg.name, viaNext, got)
		}
	}
}
