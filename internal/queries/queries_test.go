package queries

import (
	"strings"
	"testing"

	"xbench/internal/core"
	"xbench/internal/xquery"
)

func TestAllQueriesParse(t *testing.T) {
	n := 0
	for _, class := range core.Classes {
		for _, d := range ForClass(class) {
			n++
			if _, err := xquery.Parse(d.XQuery); err != nil {
				t.Errorf("%s/%s does not parse: %v", class, d.ID, err)
			}
		}
	}
	if n < 50 {
		t.Fatalf("catalog has only %d query instantiations", n)
	}
}

func TestBenchmarkedQueriesCoverAllClasses(t *testing.T) {
	// The paper's experiments use Q5, Q8, Q12, Q14 and Q17 on all four
	// classes (Tables 5-9 have columns for each).
	for _, q := range []core.QueryID{core.Q5, core.Q8, core.Q12, core.Q14, core.Q17} {
		for _, class := range core.Classes {
			if Lookup(class, q) == nil {
				t.Errorf("%s not instantiated for %s", q, class)
			}
		}
	}
}

func TestParamsDeclared(t *testing.T) {
	for _, class := range core.Classes {
		for _, d := range ForClass(class) {
			// Every declared parameter must appear in the text, and every
			// $VAR in the text (upper-case convention for externals) must
			// be declared.
			for _, p := range d.Params {
				if !strings.Contains(d.XQuery, "$"+p) {
					t.Errorf("%s/%s declares unused parameter $%s", class, d.ID, p)
				}
			}
		}
	}
}

func TestIndexHintsMatchTable3(t *testing.T) {
	// Table 3 exact contents.
	if len(Indexes(core.DCSD)) != 2 {
		t.Fatal("DC/SD should have two indexes (item/@id, date_of_release)")
	}
	if Indexes(core.TCSD)[0].Target != "hw" {
		t.Fatal("TC/SD index should be hw")
	}
}

func TestLookupMiss(t *testing.T) {
	if Lookup(core.DCSD, core.Q19) != nil {
		t.Fatal("Q19 should not be defined for DC/SD")
	}
	if Lookup(core.TCSD, core.Q4) != nil {
		t.Fatal("Q4 should not be defined for TC/SD")
	}
}

func TestOrderSensitiveFlags(t *testing.T) {
	for _, class := range core.Classes {
		d := Lookup(class, core.Q5)
		if d == nil || !d.OrderSensitive {
			t.Errorf("%s Q5 must be order sensitive", class)
		}
		d = Lookup(class, core.Q12)
		if d == nil || !d.OrderSensitive {
			t.Errorf("%s Q12 must be order sensitive", class)
		}
	}
}

func TestFunctionGroupsCovered(t *testing.T) {
	// Across the whole catalog every functional group of the paper must be
	// exercised at least once.
	groups := map[string]bool{}
	for _, class := range core.Classes {
		for _, d := range ForClass(class) {
			groups[d.ID.FunctionGroup()] = true
		}
	}
	if len(groups) != 12 {
		t.Fatalf("catalog covers %d of the paper's 12 functional groups: %v", len(groups), groups)
	}
}
