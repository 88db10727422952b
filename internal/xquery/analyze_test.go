package xquery

import "testing"

// analyze is Parse and Shape, what internal/plan does once per query text.
func analyze(src string) (*Shape, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return q.Shape(), nil
}

// primary is the first source of sh, or nil.
func primary(sh *Shape) *Source {
	if len(sh.Sources) == 0 {
		return nil
	}
	return &sh.Sources[0]
}

// TestAnalyzeSimplePredicate: a root path with an equality predicate
// yields one source with the predicate extracted for pushdown.
func TestAnalyzeSimplePredicate(t *testing.T) {
	sh, err := analyze(`//entry[hw = $W]/sense[1]`)
	if err != nil {
		t.Fatal(err)
	}
	src := primary(sh)
	if src == nil || src.RootElem != "entry" {
		t.Fatalf("primary = %+v, want entry", src)
	}
	if len(src.Preds) != 1 || src.Preds[0].Path != "hw" || src.Preds[0].Op != "=" || src.Preds[0].Param != "$W" {
		t.Fatalf("preds = %+v, want hw = $W", src.Preds)
	}
	if src.Positional != 1 {
		t.Fatalf("positional = %d, want 1 (sense[1])", src.Positional)
	}
}

// TestAnalyzeRange: paired inequality predicates survive as two preds on
// the same path, the planner's raw material for a range probe.
func TestAnalyzeRange(t *testing.T) {
	sh, err := analyze(`//item[date_of_release >= $LO and date_of_release <= $HI]/title`)
	if err != nil {
		t.Fatal(err)
	}
	src := primary(sh)
	if src == nil || len(src.Preds) != 2 {
		t.Fatalf("primary = %+v, want 2 preds", src)
	}
	ops := map[string]string{}
	for _, p := range src.Preds {
		if p.Path != "date_of_release" {
			t.Fatalf("pred path %q, want date_of_release", p.Path)
		}
		ops[p.Op] = p.Param
	}
	if ops[">="] != "$LO" || ops["<="] != "$HI" {
		t.Fatalf("ops = %v, want >=$LO and <=$HI", ops)
	}
}

// TestAnalyzeJoin: a two-variable FLWOR yields two sources, the primary
// first.
func TestAnalyzeJoin(t *testing.T) {
	sh, err := analyze(`for $o in //order[@id = $X], $c in //customer[@id = string($o/customer_id)]
		return <r>{$c/c_phone}</r>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sh.Sources) != 2 {
		t.Fatalf("sources = %+v, want 2 sources", sh.Sources)
	}
}

// TestAnalyzeDocAndAggregate: doc() access is flagged so the planner can
// special-case it, and a rooted path handed to an aggregate call is still
// the query's source.
func TestAnalyzeDocAndAggregate(t *testing.T) {
	sh, err := analyze(`doc($DOC)//account_information`)
	if err != nil {
		t.Fatal(err)
	}
	if !sh.UsesDoc {
		t.Error("doc() not detected")
	}
	sh, err = analyze(`count(//item[@id = $X])`)
	if err != nil {
		t.Fatal(err)
	}
	if src := primary(sh); src == nil || src.RootElem != "item" {
		t.Errorf("primary = %+v, want item", src)
	}
}
