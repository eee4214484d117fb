// Tcpstore: priority-coded persistence over real sockets, now as a thin
// consumer of the prlc store layer. Three storage daemons hold coded
// blocks behind the placement ring (the critical level on every
// replica, bulk data on f+1); a producer encodes prioritized
// measurements and ships them over TCP; then one daemon fails and a
// collector recovers everything from the survivors — the critical level
// survives the loss of a third of the storage fleet.
//
// By default the three daemons run in-process on ephemeral ports. With
// -addrs a,b,c the demo drives external `prlcd serve` daemons instead
// (see `make daemon-demo`), shutting the first one down over the wire.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	prlc "repro"
	"repro/internal/cliutil"
)

func main() {
	addrs := flag.String("addrs", "", "comma-separated external daemon addresses (default: 3 in-process daemons)")
	flag.Parse()
	if err := run(cliutil.SplitAddrs(*addrs)); err != nil {
		log.Fatal(err)
	}
}

func run(addrs []string) error {
	ctx := context.Background()

	// Storage fleet: external daemons, or three in-process ones.
	var servers []*prlc.StoreServer
	if len(addrs) == 0 {
		for i := 0; i < 3; i++ {
			srv, err := prlc.NewStoreServer(prlc.StoreServerConfig{})
			if err != nil {
				return err
			}
			defer func() {
				sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
				defer cancel()
				srv.Shutdown(sctx)
			}()
			servers = append(servers, srv)
			addrs = append(addrs, srv.Addr())
			fmt.Printf("storage daemon %d at %s\n", i, srv.Addr())
		}
	} else if len(addrs) < 2 {
		return fmt.Errorf("need at least 2 daemon addresses, got %d", len(addrs))
	}

	// Prioritized data: 3 critical + 9 bulk blocks of 32 bytes.
	levels, err := prlc.NewLevels(3, 9)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(99))
	sources := make([][]byte, levels.Total())
	for i := range sources {
		sources[i] = make([]byte, 32)
		rng.Read(sources[i])
	}
	enc, err := prlc.NewEncoder(prlc.PLC, levels, sources)
	if err != nil {
		return err
	}
	blocks, err := enc.EncodeBatch(rng, prlc.PriorityDistribution{0.4, 0.6}, 30)
	if err != nil {
		return err
	}

	// The placement ring over the whole fleet (R = n): every daemon is a
	// replica of the key-less object, critical level on all, bulk on f+1.
	clients := make([]*prlc.StoreClient, len(addrs))
	for i, a := range addrs {
		clients[i], err = prlc.NewStoreClient(prlc.StoreClientConfig{Addr: a})
		if err != nil {
			return err
		}
	}
	placed, err := prlc.NewPlacedStore(clients, levels.Count(), prlc.PlacedStoreConfig{Replication: len(clients), Tolerance: 1})
	if err != nil {
		return err
	}
	defer placed.Close()
	if _, err := placed.PutAll(ctx, blocks); err != nil {
		return err
	}
	fmt.Printf("shipped %d coded blocks over TCP (critical level x%d, bulk x%d)\n\n",
		len(blocks), placed.Replication(), placed.Tolerance()+1)

	// Daemon 0 dies: direct shutdown in-process, over the wire otherwise.
	if len(servers) > 0 {
		sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		defer cancel()
		if err := servers[0].Shutdown(sctx); err != nil {
			return err
		}
	} else if err := clients[0].Shutdown(ctx); err != nil {
		return err
	}
	fmt.Println("daemon 0 failed; collecting from the survivors")

	// Collect from the survivors and decode.
	survived, err := placed.Collect(ctx, prlc.ZeroObject, -1)
	if err != nil {
		return err
	}
	res, dec, err := prlc.Collect(rng, prlc.PLC, levels, survived,
		prlc.CollectOptions{Context: ctx, PayloadLen: 32})
	if err != nil {
		return err
	}
	fmt.Printf("recovered %d/%d source blocks (%d levels) from %d surviving coded blocks\n",
		res.DecodedBlocks, levels.Total(), res.DecodedLevels, len(survived))
	if res.DecodedLevels >= 1 {
		for i := 0; i < levels.Size(0); i++ {
			got, err := dec.Source(i)
			if err != nil {
				return err
			}
			if string(got) != string(sources[i]) {
				return fmt.Errorf("critical block %d corrupted in transit", i)
			}
		}
		fmt.Println("critical level verified byte-for-byte")
	}
	return nil
}
