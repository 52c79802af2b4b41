package main

import (
	"bytes"
	"reflect"
	"testing"

	"proger/internal/experiments"
)

func TestParseMachines(t *testing.T) {
	if got := parseMachines(""); got != nil {
		t.Errorf("empty → %v", got)
	}
	if got := parseMachines("10,15, 20"); !reflect.DeepEqual(got, []int{10, 15, 20}) {
		t.Errorf("parseMachines = %v", got)
	}
	if got := parseMachines("5"); !reflect.DeepEqual(got, []int{5}) {
		t.Errorf("single = %v", got)
	}
}

// TestAllIsEveryCommandInOrder: `experiments all` prints exactly what
// fig1, fig8, table3, fig9, fig10, fig11 and ablation print one after
// the other, which pins the catalogue's order and that table3 is the
// table of the fig8 run.
func TestAllIsEveryCommandInOrder(t *testing.T) {
	cfg := experiments.Config{Entities: 600}
	var all, each bytes.Buffer
	if ran, err := run(&all, "all", cfg, false, false); !ran || err != nil {
		t.Fatalf("all: ran %v, %v", ran, err)
	}
	for _, cmd := range []string{"fig1", "fig8", "table3", "fig9", "fig10", "fig11", "ablation"} {
		if ran, err := run(&each, cmd, cfg, false, false); !ran || err != nil {
			t.Fatalf("%s: ran %v, %v", cmd, ran, err)
		}
	}
	if all.Len() == 0 || !bytes.Equal(all.Bytes(), each.Bytes()) {
		t.Errorf("all printed %d bytes, the commands one by one %d", all.Len(), each.Len())
	}
	for _, cmd := range []string{"fig12", ""} {
		if ran, _ := run(&all, cmd, cfg, false, false); ran {
			t.Errorf("the unknown command %q ran an experiment", cmd)
		}
	}
}
