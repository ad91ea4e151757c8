package faults

import (
	"reflect"
	"testing"
)

// FuzzFaultModel exercises the spec parser: it must never panic, a
// refused spec must be refused with the same text again, every accepted
// spec must yield a valid model, and the canonical Spec() form must parse
// back to the identical model.
func FuzzFaultModel(f *testing.F) {
	seeds := []string{
		"none",
		"",
		"loss",
		"loss:p=1e-3",
		"loss:p=1e-3,detect=1ms,rounds=2",
		"loss:p=0.5,fixed=2ms",
		"corrupt:p=0.01",
		"gilbert:pgood=1e-4,pbad=0.3,burst=8,gap=500",
		"gilbert:pbad=0.3,burst=16+crash:rate=0.05",
		"crash:rate=0.2,down=20ms,bypass=1ms",
		"loss:p=1e-3+corrupt:p=1e-3+crash:rate=0.1",
		"loss:p=2",
		"gilbert:burst=0.1",
		"bogus:x=1",
		"loss:p=",
		"loss:p=1e-3,p=2e-3",
		"loss:zz=1,aa=2,mm=3",
		// Values of 10⁶ and up, which %g renders with an "e+" exponent.
		"gilbert:gap=1e6",
		"crash:rate=1e6",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseModel(spec)
		if err != nil {
			if _, again := ParseModel(spec); again == nil || again.Error() != err.Error() {
				t.Fatalf("ParseModel(%q) refused with %q, then with %v", spec, err, again)
			}
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("ParseModel(%q) accepted an invalid model: %v", spec, verr)
		}
		canon := m.Spec()
		back, err := ParseModel(canon)
		if err != nil {
			t.Fatalf("Spec() of parsed %q produced unparsable %q: %v", spec, canon, err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("roundtrip mismatch for %q: spec %q gave %+v, want %+v", spec, canon, back, m)
		}
	})
}
