package main

import (
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig-3.1", "fig-5.19", "table-4.1", "ablation-groups"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("list missing %s", want)
		}
	}
}

func TestRunOneExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "table-1.2", "-scale", "50000", "-quick"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "London") {
		t.Errorf("table-1.2 output missing London rule:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "completed in") {
		t.Error("missing completion line")
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	for _, args := range [][]string{{}, {"-exp", "fig-0.0"}, {"-badflag"}} {
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
