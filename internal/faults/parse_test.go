package faults

import (
	"errors"
	"strings"
	"testing"
)

func TestParseModelRoundTripsSpec(t *testing.T) {
	for _, spec := range []string{
		"none",
		"loss:p=0.001",
		"loss:p=0.001,detect=0.001,rounds=2",
		// Past 2⁵³ the round count is read exactly, not through a float.
		"loss:p=0.001,rounds=9007199254740993",
		"corrupt:p=0.0001",
		"gilbert:pgood=0.0001,pbad=0.3,burst=16,gap=500",
		"crash:rate=0.1,down=0.05,bypass=0.002",
		"loss:p=0.0005+gilbert:pgood=0,pbad=0.5,burst=8,gap=1000+crash:rate=0.05,down=0.02,bypass=0.001",
	} {
		m, err := ParseModel(spec)
		if err != nil {
			t.Fatalf("ParseModel(%q): %v", spec, err)
		}
		if got := m.Spec(); got != spec {
			t.Errorf("Spec round-trip: %q -> %q", spec, got)
		}
	}
}

func TestParseModelNormalizesEquivalentSpecs(t *testing.T) {
	// Reordered clauses, duration syntax, and exponent notation all parse
	// to the same model, whose Spec() is the canonical spelling.
	variants := []string{
		"loss:p=1e-3,detect=1ms,rounds=2",
		"loss:detect=0.001,rounds=2,p=0.001",
	}
	var first string
	for i, spec := range variants {
		m, err := ParseModel(spec)
		if err != nil {
			t.Fatalf("ParseModel(%q): %v", spec, err)
		}
		if i == 0 {
			first = m.Spec()
		} else if m.Spec() != first {
			t.Errorf("variant %q canonicalized to %q, want %q", spec, m.Spec(), first)
		}
	}
}

func TestParseModelUnknownKindListsValidKinds(t *testing.T) {
	_, err := ParseModel("jitter:p=0.5")
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	if !errors.Is(err, ErrBadSpec) {
		t.Errorf("error %v does not wrap ErrBadSpec", err)
	}
	for _, want := range []string{"corrupt", "crash", "gilbert", "loss", `"none"`, "jitter"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %s", err, want)
		}
	}
}

func TestParseModelUnknownKeyListsValidKeys(t *testing.T) {
	cases := map[string][]string{
		"loss:prob=0.5":   {"p, detect, rounds, fixed", "prob"},
		"gilbert:size=8":  {"pgood, pbad, burst, gap", "size"},
		"crash:mttf=10":   {"rate, down, bypass", "mttf"},
		"corrupt:rate=.1": {"p", "rate"},
	}
	for spec, wants := range cases {
		_, err := ParseModel(spec)
		if err == nil {
			t.Errorf("%q accepted", spec)
			continue
		}
		if !errors.Is(err, ErrBadSpec) {
			t.Errorf("%q: error %v does not wrap ErrBadSpec", spec, err)
		}
		for _, want := range wants {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%q: error %q should mention %q", spec, err, want)
			}
		}
	}
}

// TestParseModelNamesLeastUnknownKey checks that a clause with several
// unknown keys is refused naming the least of them, with the same text on
// every parse.
func TestParseModelNamesLeastUnknownKey(t *testing.T) {
	const spec = "loss:zz=1,aa=2,mm=3"
	const want = `faults: bad fault-model spec: unknown loss key "aa" (valid loss keys: p, detect, rounds, fixed)`
	for i := 0; i < 100; i++ {
		if _, err := ParseModel(spec); err == nil || err.Error() != want {
			t.Fatalf("parse %d of %q: err = %v, want %s", i, spec, err, want)
		}
	}
}

func TestScenarioByNameUnknownListsAllScenarios(t *testing.T) {
	_, err := ScenarioByName("bogus")
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if !errors.Is(err, ErrUnknownScenario) {
		t.Errorf("error %v does not wrap ErrUnknownScenario", err)
	}
	for _, sc := range Scenarios() {
		if !strings.Contains(err.Error(), sc.Name) {
			t.Errorf("error %q should list scenario %q", err, sc.Name)
		}
	}
	if !strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("error %q should echo the bad name", err)
	}
}

func TestScenarioByNameFindsEveryScenario(t *testing.T) {
	for _, want := range Scenarios() {
		got, err := ScenarioByName(want.Name)
		if err != nil {
			t.Errorf("ScenarioByName(%q): %v", want.Name, err)
			continue
		}
		if got.Name != want.Name {
			t.Errorf("ScenarioByName(%q) = %q", want.Name, got.Name)
		}
	}
}
