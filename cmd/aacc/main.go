// Command aacc runs one anytime anywhere closeness-centrality analysis end
// to end on the simulated cluster: generate or load a graph, decompose it
// over P simulated processors, converge, and report the most central actors
// together with the simulated parallel cost.
//
// Examples:
//
//	aacc -n 4000 -p 16 -top 10
//	aacc -graph web.edges -p 8 -harmonic
//	aacc -gen community -n 2000 -anytime
//	aacc -changes stream.log -serve
//	aacc -runtime tcp     # exchanges over a real TCP loopback mesh
//
// The same binary also deploys as one coordinator plus N worker processes
// exchanging over real sockets (every process needs the same graph and
// analysis flags):
//
//	aacc -role coordinator -listen 127.0.0.1:4700 -cluster-workers 2 -n 4000 -p 16
//	aacc -role worker -coordinator 127.0.0.1:4700 -n 4000 -p 16
//	aacc -role worker -coordinator 127.0.0.1:4700 -n 4000 -p 16
package main

import (
	"log"
	"os"

	"aacc/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("aacc: ")
	if err := cli.Analysis(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}
