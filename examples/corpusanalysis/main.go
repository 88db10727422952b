// Corpusanalysis: rerun the paper's §2.1.1 methodology on our own
// generated data. The XBench authors analyzed real corpora (GCIDE, OED,
// Reuters, Springer) to extract element inventories, parent/child
// occurrence distributions and irregularity statistics, then fitted
// standard probability distributions and built generators from them.
// This example closes the loop: it generates a TC/MD corpus, analyzes it
// with the same pipeline, and shows that the published structure of
// Figure 2 — recursion, optional elements, skewed occurrence counts —
// is recovered empirically.
//
// Run with:
//
//	go run ./examples/corpusanalysis [-class tcmd]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"xbench"
	"xbench/internal/analyze"
)

func main() {
	classFlag := flag.String("class", "tcmd", "database class to analyze")
	flag.Parse()
	class, err := xbench.ParseClass(*classFlag)
	if err != nil {
		log.Fatal(err)
	}

	db, err := xbench.Generate(class, xbench.Small)
	if err != nil {
		log.Fatal(err)
	}

	report := analyze.New()
	for _, d := range db.Docs {
		if err := report.AddDocument(d.Data); err != nil {
			log.Fatal(err)
		}
	}
	report.Finish()

	if _, err := report.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nCompare with the published schema (paper Figures 1-4):")
	fmt.Println(xbench.SchemaDiagram(class))
}
