// Command pqocache inspects plan-cache snapshot files written by
// WriteSnapshotFile (e.g. by examples/server's /v1/snapshot endpoint):
// which plans are cached, how many optimized instances anchor each plan's
// inference region, their usage counts and cost ranges.
//
// Usage:
//
//	pqocache snapshot.json [more.json ...]
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: pqocache <snapshot.json> [...]")
		os.Exit(2)
	}
	for _, path := range os.Args[1:] {
		data, err := core.ReadSnapshotFile(path)
		if err != nil {
			fatal(err)
		}
		sum, err := core.InspectSnapshot(data)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		fmt.Printf("%s: %d plans, %d optimized instances, d=%d\n",
			path, len(sum.Plans), sum.Instances, sum.Dimensions)
		fmt.Printf("  %-4s %-9s %-7s %-12s %-11s %s\n",
			"#", "instances", "usage", "cost range", "quarantined", "fingerprint")
		for i, p := range sum.Plans {
			fp := p.Fingerprint
			if len(fp) > 60 {
				fp = fp[:57] + "..."
			}
			fmt.Printf("  %-4d %-9d %-7d %6.0f-%-5.0f %-11d %s\n",
				i+1, p.Instances, p.Usage, p.MinCost, p.MaxCost, p.Quarantined, fp)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pqocache:", err)
	os.Exit(1)
}
