// Command benchrunner regenerates the experiment tables and figure series
// of the reproduction (see DESIGN.md for the per-experiment index).
//
// Usage:
//
//	benchrunner -list
//	benchrunner -exp T2 [-seed 42]
//	benchrunner -all [-seed 42]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	var (
		exp  = flag.String("exp", "", "experiment id to run (e.g. T2, F5)")
		all  = flag.Bool("all", false, "run every experiment")
		list = flag.Bool("list", false, "list experiment ids")
		seed = flag.Uint64("seed", 42, "random seed")
	)
	flag.Parse()

	switch {
	case *list:
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
	case *all:
		if err := experiments.RunAll(*seed, os.Stdout); err != nil {
			fatal(err)
		}
	case *exp != "":
		if _, err := experiments.Run(*exp, *seed, os.Stdout); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchrunner:", err)
	os.Exit(1)
}
