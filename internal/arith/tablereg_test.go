package arith

import (
	"math"
	"testing"

	"positlab/internal/minifloat"
	"positlab/internal/posit"
)

// TestUnmarshalRejectsInconsistentTables alters one field of freshly
// built tables per case and re-marshals them: the body is checksum-
// and length-consistent, so only the decoder's value checks stand
// between it and a table that indexes out of range or misrounds. Each
// load must fail, and never panic. The pattern-valued cases apply only
// below 16 bits, where a uint16 entry can exceed the width's mask.
func TestUnmarshalRejectsInconsistentTables(t *testing.T) {
	cases := []struct {
		name   string
		narrow bool
		alter  func(tb *Tables)
	}{
		{"sqrt above patMask", true, func(tb *Tables) { tb.sqrt[3] = 0x1FF }},
		{"recip above patMask", true, func(tb *Tables) { tb.recip[5] = tb.patMask + 1 }},
		{"nanPat above patMask", true, func(tb *Tables) { tb.nanPat = tb.patMask + 1 }},
		{"signPat above patMask", true, func(tb *Tables) { tb.signPat |= tb.patMask + 1 }},
		{"infPat above patMask", true, func(tb *Tables) { tb.infPat |= tb.patMask + 1 }},
		{"patBase above maxPat", false, func(tb *Tables) { tb.patBase[len(tb.patBase)/2] = uint16(tb.maxPat) + 1 }},
		{"patMask wider than the width", true, func(tb *Tables) { tb.patMask = tb.patMask<<1 | 1 }},
		{"patMask narrower than the width", false, func(tb *Tables) { tb.patMask >>= 1 }},
		{"maxPat at half the patterns", false, func(tb *Tables) {
			tb.maxPat = 1 << uint(tb.width-1)
			for uint32(len(tb.cut)) < tb.maxPat+2 {
				tb.cut = append(tb.cut, tb.cut[len(tb.cut)-1]+1)
			}
			tb.maxFinBits = math.Float64bits(tb.decode[tb.maxPat])
		}},
		{"cut entries swapped", false, func(tb *Tables) { tb.cut[10], tb.cut[11] = tb.cut[11], tb.cut[10] }},
		{"cut[0] nonzero", false, func(tb *Tables) { tb.cut[0] = 1 }},
		{"fraction width at width", false, func(tb *Tables) {
			for i, b := range tb.fb {
				if b >= 1 {
					tb.fb[i] = int8(tb.width)
					return
				}
			}
		}},
		{"maxFinBits off by one", false, func(tb *Tables) { tb.maxFinBits++ }},
	}
	for _, fresh := range []*Tables{
		buildMiniTables(minifloat.MustNew(5, 2)),
		buildPositTables(posit.MustNew(16, 1)),
	} {
		spec, body := fresh.spec, fresh.marshalBinary()
		if _, err := unmarshalTables(spec, body); err != nil {
			t.Fatalf("%s: fresh tables rejected: %v", spec, err)
		}
		for _, c := range cases {
			if c.narrow && fresh.width == 16 {
				continue
			}
			t.Run(spec+"/"+c.name, func(t *testing.T) {
				tb, err := unmarshalTables(spec, body) // a private copy to alter
				if err != nil {
					t.Fatal(err)
				}
				c.alter(tb)
				altered := tb.marshalBinary()
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("load panicked: %v", r)
					}
				}()
				if _, err := unmarshalTables(spec, altered); err == nil {
					t.Fatal("inconsistent body accepted")
				}
			})
		}
	}
}
