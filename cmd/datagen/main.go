// Command datagen generates the synthetic dataset of a workload of the
// internal/experiments catalogue (publications ≈ CiteSeerX, books ≈
// OL-Books, people = the paper's Table-I toy, persons), writing the
// records as TSV and the ground truth as an id→cluster table.
//
// Usage:
//
//	datagen -kind publications -n 100000 -seed 1 -out data.tsv -truth truth.tsv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"proger/internal/datagen"
	"proger/internal/entity"
	"proger/internal/experiments"
)

func main() {
	kind := flag.String("kind", "publications", "dataset kind: "+strings.Join(experiments.Names(), " | "))
	n := flag.Int("n", 10000, "number of entities (ignored for people)")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", "", "output TSV path (default stdout)")
	truth := flag.String("truth", "", "ground-truth output path (optional)")
	flag.Parse()

	wl, err := experiments.Generate(*kind, *n, *seed)
	if err != nil {
		log.Fatalf("datagen: %v", err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := entity.WriteTSV(w, wl.DS); err != nil {
		log.Fatal(err)
	}
	if *truth != "" {
		f, err := os.Create(*truth)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := datagen.WriteGroundTruth(f, wl.GT); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "datagen: %d entities, %d clusters, %d true duplicate pairs\n",
		wl.DS.Len(), len(wl.GT.Clusters), wl.GT.NumDupPairs())
}
