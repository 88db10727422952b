package xbench_test

import (
	"context"
	"fmt"
	"log"

	"xbench"
)

// Example is the README's quick start: generate the DC/SD database, load
// it into the native engine with the Table 3 indexes, run workload queries
// cold, and hand ad-hoc XQuery to the evaluator the native engine runs.
// It prints counts and page I/Os, which the generator's seed fixes, and
// no times.
func Example() {
	ctx := context.Background()
	db, err := xbench.Generate(xbench.DCSD, xbench.Small) // deterministic
	if err != nil {
		log.Fatal(err)
	}
	engine, err := xbench.New("native") // X-Hive analog
	if err != nil {
		log.Fatal(err)
	}
	st, err := xbench.LoadAndIndex(ctx, engine, db) // bulk load + Table 3 indexes
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s loaded by %s: %d document(s), %d nodes, %d page I/Os\n",
		db.Instance(), engine.Name(), len(db.Docs), st.Nodes, st.PageIO)

	// Workload queries, cold (caches dropped first, as in the paper).
	for _, q := range []xbench.QueryID{xbench.Q1, xbench.Q5, xbench.Q14, xbench.Q20} {
		m := xbench.RunCold(ctx, engine, xbench.DCSD, q)
		if m.Err != nil {
			log.Fatalf("%s: %v", q, m.Err)
		}
		fmt.Printf("%s: %d item(s), %d page I/Os\n", q, m.Result.Count(), m.Result.PageIO)
	}

	// Ad-hoc XQuery over the generated documents.
	items, err := xbench.EvalXQuery(
		`for $i in //item[number(attributes/number_of_pages) > 900]
		 order by $i/title
		 return concat(string($i/title), " (", string($i/attributes/number_of_pages), " pages)")`,
		db.Docs, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d books over 900 pages, first: %s\n", len(items), items[0])
	// Output:
	// DCSDS loaded by X-Hive: 1 document(s), 14558 nodes, 20 page I/Os
	// Q1: 1 item(s), 21 page I/Os
	// Q5: 1 item(s), 21 page I/Os
	// Q14: 50 item(s), 21 page I/Os
	// Q20: 5 item(s), 20 page I/Os
	// 5 books over 900 pages, first: At And The In Breadth (945 pages)
}

// ExampleNew builds an engine with every option the README shows: a
// buffer pool of 256 pages, a fault policy (a seed alone injects no
// fault) and a metrics registry the pager counts into.
func ExampleNew() {
	engine, err := xbench.New("native",
		xbench.WithPoolPages(256),
		xbench.WithFaultPolicy(xbench.FaultPolicy{Seed: 7}),
		xbench.WithMetrics(xbench.NewMetricsRegistry()))
	if err != nil {
		log.Fatal(err)
	}
	db, err := xbench.Generate(xbench.DCSD, xbench.Small)
	if err != nil {
		log.Fatal(err)
	}
	st, err := xbench.LoadAndIndex(context.Background(), engine, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d page I/Os\n", engine.Name(), st.PageIO)
	// Output:
	// X-Hive: 20 page I/Os
}

// Example_newsArchive runs ad-hoc XQuery over the text-centric
// multi-document class (TC/MD): the citation graph the articles' cross
// references draw.
func Example_newsArchive() {
	db, err := xbench.Generate(xbench.TCMD, xbench.Small)
	if err != nil {
		log.Fatal(err)
	}
	refs, err := xbench.EvalXQuery(
		`for $a in //article
		 where exists($a/epilog/references/a_id)
		 return concat(string($a/@id), " -> ", string-join(data($a/epilog/references/a_id/@target), " "))`,
		db.Docs, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d of %d articles cite others\n", len(refs), len(db.Docs))
	for _, r := range refs[:3] {
		fmt.Println(r)
	}
	// Output:
	// 18 of 30 articles cite others
	// a2 -> a5 a13 a16 a25 a1 a7
	// a3 -> a25 a1 a14 a5
	// a5 -> a13 a22 a7 a1 a21 a14
}
