package main

import (
	"strings"
	"testing"
)

func TestExpList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"exp", "-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig-3.1", "fig-5.19", "table-4.1", "ablation-groups"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("list missing %s", want)
		}
	}
}

func TestExpRunOneExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"exp", "-exp", "table-1.2", "-scale", "50000", "-quick"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "London") {
		t.Errorf("table-1.2 output missing London rule:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "completed in") {
		t.Error("missing completion line")
	}
}

func TestExpRunErrors(t *testing.T) {
	var sb strings.Builder
	for _, args := range [][]string{{"exp"}, {"exp", "-exp", "fig-0.0"}, {"exp", "-badflag"}} {
		if err := run(args, &sb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
