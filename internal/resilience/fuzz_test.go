package resilience

import (
	"strings"
	"testing"
)

// FuzzChaosSpec asserts the chaos-spec parser never panics, that a
// refused spec is refused with the same text again, and that every
// accepted spec survives a canonical round trip: Spec() renders a form
// ParseChaos accepts and that reproduces the model exactly — the same
// contract the fault-model and topology grammars keep.
func FuzzChaosSpec(f *testing.F) {
	for _, seed := range []string{
		"", "none", "latency", "error", "reset",
		"latency:p=0.2,ms=30+error:p=0.1,code=503+reset:p=0.02+seed:n=7",
		"latency:p=1e-3", "error:code=599", "seed:n=-3",
		"latency:p=0.1,ms=0", "latency:+error", "a=b", "latency:p==1",
		"latency:p=0.1,ms=1e6", // %g renders ms=1e+06
		"error:code=0", "latency:zz=1,aa=2,mm=3",
		"seed:n=9007199254740993", "seed:n=1e18", "seed:n=1.5", "seed:n=-1e30",
		"error:code=5.03e2", "latency:p=0.1,ms=1e13",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseChaos(spec)
		if err != nil {
			if _, again := ParseChaos(spec); again == nil || again.Error() != err.Error() {
				t.Fatalf("ParseChaos(%q) refused with %q, then with %v", spec, err, again)
			}
			return
		}
		canon := m.Spec()
		again, err := ParseChaos(canon)
		if err != nil {
			t.Fatalf("canonical spec %q of accepted %q rejected: %v", canon, spec, err)
		}
		if again != m {
			t.Fatalf("round trip %q → %q: %+v != %+v", spec, canon, again, m)
		}
		if strings.Count(canon, "+") > strings.Count(spec, "+")+1 {
			t.Fatalf("canonical form %q longer than input %q", canon, spec)
		}
	})
}
