package core

import "testing"

func TestClassStringAndCode(t *testing.T) {
	cases := map[Class][2]string{
		TCSD: {"TC/SD", "tcsd"},
		TCMD: {"TC/MD", "tcmd"},
		DCSD: {"DC/SD", "dcsd"},
		DCMD: {"DC/MD", "dcmd"},
	}
	for c, want := range cases {
		if c.String() != want[0] || c.Code() != want[1] {
			t.Errorf("%d: String=%q Code=%q", c, c.String(), c.Code())
		}
	}
}

func TestClassPredicates(t *testing.T) {
	if !TCSD.TextCentric() || !TCMD.TextCentric() || DCSD.TextCentric() {
		t.Fatal("TextCentric wrong")
	}
	if !TCSD.SingleDocument() || !DCSD.SingleDocument() || DCMD.SingleDocument() {
		t.Fatal("SingleDocument wrong")
	}
}

func TestParseClass(t *testing.T) {
	for _, s := range []string{"tcsd", "TC/SD", "tc-sd", "TC_SD"} {
		c, err := ParseClass(s)
		if err != nil || c != TCSD {
			t.Errorf("ParseClass(%q) = %v, %v", s, c, err)
		}
	}
	if _, err := ParseClass("nope"); err == nil {
		t.Fatal("ParseClass accepted garbage")
	}
}

func TestSize(t *testing.T) {
	if Small.Factor() != 1 || Normal.Factor() != 10 || Large.Factor() != 100 || Huge.Factor() != 1000 {
		t.Fatal("Factor spacing not 10x")
	}
	if s, err := ParseSize("Normal"); err != nil || s != Normal {
		t.Fatal("ParseSize normal failed")
	}
	if s, err := ParseSize("l"); err != nil || s != Large {
		t.Fatal("ParseSize shorthand failed")
	}
	if _, err := ParseSize("giant"); err == nil {
		t.Fatal("ParseSize accepted garbage")
	}
}

func TestInstanceName(t *testing.T) {
	if got := InstanceName(TCSD, Small); got != "TCSDS" {
		t.Fatalf("InstanceName = %q", got)
	}
	if got := InstanceName(DCMD, Normal); got != "DCMDN" {
		t.Fatalf("InstanceName = %q", got)
	}
}

func TestDatabaseBytes(t *testing.T) {
	db := &Database{Class: DCSD, Size: Small, Docs: []Doc{
		{Name: "a.xml", Data: []byte("12345")},
		{Name: "b.xml", Data: []byte("678")},
	}}
	if db.Bytes() != 8 {
		t.Fatalf("Bytes = %d", db.Bytes())
	}
	if db.Instance() != "DCSDS" {
		t.Fatalf("Instance = %q", db.Instance())
	}
}

func TestIndexSpecAttribute(t *testing.T) {
	if !(IndexSpec{Class: DCSD, Target: "item/@id"}).Attribute() {
		t.Fatal("item/@id should be an attribute index")
	}
	if (IndexSpec{Class: DCSD, Target: "date_of_release"}).Attribute() {
		t.Fatal("date_of_release is not an attribute index")
	}
}

func TestQueryIDGroups(t *testing.T) {
	if Q1.FunctionGroup() != "Exact match" || Q17.FunctionGroup() != "Text search" {
		t.Fatal("FunctionGroup wrong")
	}
	if Q5.String() != "Q5" {
		t.Fatal("String wrong")
	}
	seen := map[string]bool{}
	for q := Q1; q <= Q20; q++ {
		g := q.FunctionGroup()
		if g == "Unknown" {
			t.Fatalf("%s has no function group", q)
		}
		seen[g] = true
	}
	if len(seen) != 12 {
		t.Fatalf("expected the paper's 12 functional groups, got %d", len(seen))
	}
}

func TestParams(t *testing.T) {
	p := Params{"X": "I1"}
	if p.Get("X") != "I1" || p.Get("missing") != "" {
		t.Fatal("Params.Get wrong")
	}
}

func TestDocOf(t *testing.T) {
	for _, c := range []struct{ id, root, name string }{
		{"O1", "order", "order1.xml"},
		{"O40", "order", "order40.xml"},
		{"OU7", "order", "order-update-7.xml"},
		{"a3", "article", "article3.xml"},
		{"aU12", "article", "article-update-12.xml"},
		{"", "", ""},
		{"O", "", ""},
		{"OU", "", ""},
		{"I1", "", ""},
		{"C1", "", ""},
		{"a1-s2.1", "", ""},
		{"O1x", "", ""},
		{"o1", "", ""},
	} {
		root, name, ok := DocOf(c.id)
		if root != c.root || name != c.name || ok != (c.name != "") {
			t.Errorf("DocOf(%q) = %q, %q, %v; want %q, %q", c.id, root, name, ok, c.root, c.name)
		}
	}
}
