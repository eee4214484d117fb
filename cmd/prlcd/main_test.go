package main

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

func startDaemons(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := store.NewServer(store.ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		addrs[i] = srv.Addr()
	}
	return addrs
}

func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"store"},
		{"store", "bogus"},
		{"store", "ping"},             // missing -addr
		{"store", "put", "-in", "x"},  // missing -addrs
		{"store", "get", "-out", "x"}, // missing -addrs/-sizes
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) accepted bad usage", args)
		}
	}
}

func TestPingAndStat(t *testing.T) {
	addrs := startDaemons(t, 1)
	var out bytes.Buffer
	if err := run([]string{"store", "ping", "-addr", addrs[0]}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "alive") {
		t.Fatalf("ping output: %q", out.String())
	}
	out.Reset()
	if err := run([]string{"store", "stat", "-addr", addrs[0]}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 blocks") {
		t.Fatalf("stat output: %q", out.String())
	}
}

// TestPutGetRoundTripWithDeadReplica ships a file into 3 daemons, kills
// one, and recovers the complete file from the survivors via the printed
// get command's parameters.
func TestPutGetRoundTripWithDeadReplica(t *testing.T) {
	addrs := startDaemons(t, 3)
	addrList := strings.Join(addrs, ",")

	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	data := make([]byte, 4096)
	rand.New(rand.NewSource(5)).Read(data)
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	err := run([]string{
		"store", "put", "-addrs", addrList, "-in", in,
		"-blocks", "20", "-coded", "40", "-levels", "0.3,0.7", "-scheme", "plc",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "-sizes 6,14") {
		t.Fatalf("put did not print the recovery command: %q", out.String())
	}

	// Kill daemon 0; the critical data is replicated on the survivors.
	var shut bytes.Buffer
	if err := run([]string{"store", "shutdown", "-addr", addrs[0]}, &shut); err != nil {
		t.Fatal(err)
	}

	rec := filepath.Join(dir, "rec.bin")
	out.Reset()
	err = run([]string{
		"store", "get", "-addrs", addrList, "-out", rec,
		"-scheme", "plc", "-sizes", "6,14", "-size", "4096",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("recovered %d bytes differ from input (output: %q)", len(got), out.String())
	}
	if !strings.Contains(out.String(), "complete file") {
		t.Fatalf("get output: %q", out.String())
	}
}

// syncBuffer is a bytes.Buffer safe to share between the serve
// goroutine and the test polling its output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// serveDisk starts `prlcd serve -data-dir` in a goroutine and returns
// the bound address, the output buffer, and a channel with serve's exit
// error (it returns once a client sends shutdown).
func serveDisk(t *testing.T, dataDir string) (string, *syncBuffer, <-chan error) {
	t.Helper()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-addr", "127.0.0.1:0", "-data-dir", dataDir}, out)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := out.String(); strings.Contains(s, "serving on ") {
			addr := strings.TrimSpace(strings.SplitN(s, "serving on ", 2)[1])
			addr = strings.SplitN(addr, "\n", 2)[0]
			return addr, out, done
		}
		select {
		case err := <-done:
			t.Fatalf("serve exited early: %v (output %q)", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve did not come up: %q", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeDataDirSurvivesRestart is the quickstart from the README: a
// daemon with -data-dir is filled, shut down, restarted on the same
// directory, and the file is recovered from the recovered blocks alone.
func TestServeDataDirSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")
	in := filepath.Join(dir, "in.bin")
	data := make([]byte, 4096)
	rand.New(rand.NewSource(9)).Read(data)
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}

	addr, _, done := serveDisk(t, dataDir)
	var out bytes.Buffer
	err := run([]string{
		"store", "put", "-addrs", addr, "-in", in,
		"-blocks", "20", "-coded", "40", "-levels", "0.3,0.7", "-scheme", "plc", "-f", "0",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"store", "shutdown", "-addr", addr}, &out); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve exit: %v", err)
	}

	// Restart on the same directory: the log replays into the index.
	addr2, sout, done2 := serveDisk(t, dataDir)
	if s := sout.String(); !strings.Contains(s, "recovered 40 blocks") {
		t.Fatalf("restart banner missing recovery summary: %q", s)
	}
	rec := filepath.Join(dir, "rec.bin")
	out.Reset()
	err = run([]string{
		"store", "get", "-addrs", addr2, "-out", rec,
		"-scheme", "plc", "-sizes", "6,14", "-size", "4096",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("recovered %d bytes differ from input after restart (output: %q)", len(got), out.String())
	}
	if err := run([]string{"store", "shutdown", "-addr", addr2}, &out); err != nil {
		t.Fatal(err)
	}
	if err := <-done2; err != nil {
		t.Fatalf("serve exit: %v", err)
	}
}

// TestKeyedPutGetAndRing is the multi-object quickstart: two objects
// shipped into one 3-daemon fleet through the placement ring, recovered
// independently via -object, with `prlcd ring` and per-object stat
// output agreeing on where the blocks went.
func TestKeyedPutGetAndRing(t *testing.T) {
	addrs := startDaemons(t, 3)
	addrList := strings.Join(addrs, ",")

	dir := t.TempDir()
	files := map[string][]byte{}
	for i, name := range []string{"alpha", "beta"} {
		data := make([]byte, 2048)
		rand.New(rand.NewSource(int64(20 + i))).Read(data)
		files[name] = data
		in := filepath.Join(dir, name+".bin")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := run([]string{
			"store", "put", "-addrs", addrList, "-in", in, "-object", name,
			"-blocks", "20", "-coded", "40", "-levels", "0.3,0.7", "-scheme", "plc",
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "-object "+name) {
			t.Fatalf("keyed put did not print a keyed recovery command: %q", out.String())
		}
	}

	for name, data := range files {
		rec := filepath.Join(dir, name+".rec")
		var out bytes.Buffer
		err := run([]string{
			"store", "get", "-addrs", addrList, "-out", rec, "-object", name,
			"-scheme", "plc", "-sizes", "6,14", "-size", "2048",
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("object %s: recovered bytes differ (output: %q)", name, out.String())
		}
	}

	// The ring view names every node alive and resolves alpha's replicas.
	var out bytes.Buffer
	if err := run([]string{"ring", "-addrs", addrList, "-object", "alpha"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "ring: 3 nodes (3 alive), replication 3") {
		t.Fatalf("ring header: %q", s)
	}
	for _, a := range addrs {
		if !strings.Contains(s, a+"  alive  owns (") {
			t.Fatalf("ring missing ownership line for %s: %q", a, s)
		}
	}
	if !strings.Contains(s, "replicas "+addrs[0]) && !strings.Contains(s, "replicas "+addrs[1]) &&
		!strings.Contains(s, "replicas "+addrs[2]) {
		t.Fatalf("ring did not resolve the object's replica set: %q", s)
	}

	// Stat shows both namespaces, and -object narrows to one.
	out.Reset()
	if err := run([]string{"store", "stat", "-addr", addrs[0]}, &out); err != nil {
		t.Fatal(err)
	}
	s = out.String()
	if !strings.Contains(s, "object obj-") {
		t.Fatalf("stat missing per-object sections: %q", s)
	}
	out.Reset()
	if err := run([]string{"store", "stat", "-addr", addrs[0], "-object", "alpha"}, &out); err != nil {
		t.Fatal(err)
	}
	if c := strings.Count(out.String(), "object obj-"); c != 1 {
		t.Fatalf("stat -object printed %d sections, want 1: %q", c, out.String())
	}
}

// TestMigrateCLI grows a fleet under keyed data: objects are stored
// while only two daemons exist, two more join the ring, and `prlcd
// migrate` re-homes whatever the wider ring placed elsewhere. Old
// holders are wiped, a follow-up round finds nothing displaced, and
// every file still recovers bit-exactly through the full fleet.
// growNames returns n object names of which at least one changes
// owners when the ring grows from the first narrow daemons to all of
// them. Placement is pure ring math over the fleet's random ports, so
// two scratch rings predict it without storing anything.
func growNames(t *testing.T, addrs []string, narrow, n int) []string {
	t.Helper()
	ring := func(addrs []string) *store.Placed {
		clients := make([]*store.Client, len(addrs))
		for i, addr := range addrs {
			cl, err := store.NewClient(store.ClientConfig{Addr: addr})
			if err != nil {
				t.Fatal(err)
			}
			clients[i] = cl
		}
		p, err := store.NewPlaced(clients, 2, store.PlacedConfig{Replication: 2, Tolerance: 1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	before, after := ring(addrs[:narrow]), ring(addrs)
	defer before.Close()
	defer after.Close()

	var movers, stayers []string
	for i := 0; len(movers)+len(stayers) < 4*n && len(movers) < n; i++ {
		name := "grow-" + string(rune('a'+i%26)) + strings.Repeat("z", i/26)
		obj := core.NamedObject(name)
		pre, err := before.ReplicasForObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		post, err := after.ReplicasForObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		postSet := map[string]bool{}
		for _, a := range post {
			postSet[a] = true
		}
		moves := false
		for _, a := range pre {
			if !postSet[a] {
				moves = true
				break
			}
		}
		if moves {
			movers = append(movers, name)
		} else {
			stayers = append(stayers, name)
		}
	}
	if len(movers) == 0 {
		t.Fatal("no candidate name changes owners across the grown ring")
	}
	names := append(movers, stayers...)
	return names[:n]
}

func TestMigrateCLI(t *testing.T) {
	addrs := startDaemons(t, 4)
	oldList := strings.Join(addrs[:2], ",")
	fullList := strings.Join(addrs, ",")

	dir := t.TempDir()
	files := map[string][]byte{}
	for i, name := range growNames(t, addrs, 2, 5) {
		data := make([]byte, 2048)
		rand.New(rand.NewSource(int64(40 + i))).Read(data)
		files[name] = data
		in := filepath.Join(dir, name+".bin")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := run([]string{
			"store", "put", "-addrs", oldList, "-in", in, "-object", name,
			"-blocks", "20", "-coded", "40", "-levels", "0.3,0.7", "-scheme", "plc",
			"-replicas", "2",
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
	}

	var out bytes.Buffer
	err := run([]string{
		"migrate", "-addrs", fullList, "-replicas", "2",
		"-scheme", "plc", "-sizes", "6,14", "-total", "40",
	}, &out)
	if err != nil {
		t.Fatalf("migrate: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "objects displaced") || strings.Contains(s, "failed\n") && !strings.Contains(s, "0 failed") {
		t.Fatalf("migrate report: %q", s)
	}
	// At least one name was picked to change owners, so a report of
	// zero displacement means the ring diff is broken.
	if strings.Contains(s, "0 objects displaced") {
		t.Fatalf("no object displaced across the grown ring: %q", s)
	}

	// A second round finds placement and data in agreement.
	out.Reset()
	err = run([]string{
		"migrate", "-addrs", fullList, "-replicas", "2",
		"-scheme", "plc", "-sizes", "6,14", "-total", "40",
	}, &out)
	if err != nil {
		t.Fatalf("idempotent migrate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0 objects displaced") {
		t.Fatalf("second migrate round still found work: %q", out.String())
	}

	// Every file recovers bit-exactly through the full fleet.
	for name, data := range files {
		rec := filepath.Join(dir, name+".rec")
		out.Reset()
		err := run([]string{
			"store", "get", "-addrs", fullList, "-out", rec, "-object", name,
			"-scheme", "plc", "-sizes", "6,14", "-size", "2048", "-replicas", "2",
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("object %s: recovered bytes differ after migration", name)
		}
	}
}

// TestStoreSegmentsCLI drives `prlcd store segments` against a
// disk-backed daemon (table with records and an active segment) and a
// memory daemon (a clear "no disk engine" rejection).
func TestStoreSegmentsCLI(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	data := make([]byte, 2048)
	rand.New(rand.NewSource(11)).Read(data)
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	addr, _, done := serveDisk(t, filepath.Join(dir, "data"))
	var out bytes.Buffer
	err := run([]string{
		"store", "put", "-addrs", addr, "-in", in,
		"-blocks", "10", "-coded", "20", "-levels", "0.3,0.7", "-scheme", "plc", "-f", "0",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"store", "segments", "-addr", addr}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "20 records") || !strings.Contains(s, "active") {
		t.Fatalf("segments output missing inventory or active marker: %q", s)
	}
	if err := run([]string{"store", "shutdown", "-addr", addr}, &out); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve exit: %v", err)
	}

	// A memory-engine daemon rejects the op with a pointer to -data-dir.
	memAddr := startDaemons(t, 1)[0]
	out.Reset()
	err = run([]string{"store", "segments", "-addr", memAddr}, &out)
	if err == nil || !strings.Contains(err.Error(), "data-dir") {
		t.Fatalf("segments on memory engine: err %v, want a -data-dir hint", err)
	}
}

// writeRandomFile writes n seeded random bytes to dir/name and returns
// the path and the bytes.
func writeRandomFile(t *testing.T, dir, name string, n int, seed int64) (string, []byte) {
	t.Helper()
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestKeylessGetIgnoresKeyedObjects pins the key-less get to object
// zero: a keyed object with the same code geometry sharing the fleet
// must not leak into the decode (core.Decoder does not look at
// Block.Object, so a wildcard collect decodes a "complete file" of the
// wrong bytes).
func TestKeylessGetIgnoresKeyedObjects(t *testing.T) {
	addrs := startDaemons(t, 3)
	addrList := strings.Join(addrs, ",")
	dir := t.TempDir()
	inA, _ := writeRandomFile(t, dir, "a.bin", 4096, 31)
	inB, dataB := writeRandomFile(t, dir, "b.bin", 4096, 32)

	code := []string{"-blocks", "20", "-coded", "40", "-levels", "0.3,0.7", "-scheme", "plc"}
	var out bytes.Buffer
	put := append([]string{"store", "put", "-addrs", addrList, "-in", inA, "-object", "other", "-replicas", "3"}, code...)
	if err := run(put, &out); err != nil {
		t.Fatal(err)
	}
	put = append([]string{"store", "put", "-addrs", addrList, "-in", inB}, code...)
	if err := run(put, &out); err != nil {
		t.Fatal(err)
	}

	rec := filepath.Join(dir, "rec.bin")
	out.Reset()
	err := run([]string{
		"store", "get", "-addrs", addrList, "-out", rec,
		"-scheme", "plc", "-sizes", "6,14", "-size", "4096",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, dataB) {
		t.Fatalf("key-less get returned %d bytes that are not the key-less file (output: %q)", len(got), out.String())
	}
}

// wipeDaemon shuts the daemon at addr down over the wire and brings an
// empty one back on the same address — churn with a blank-disk
// replacement.
func wipeDaemon(t *testing.T, addr string) {
	t.Helper()
	var out bytes.Buffer
	if err := run([]string{"store", "shutdown", "-addr", addr}, &out); err != nil {
		t.Fatal(err)
	}
	for attempt := 0; ; attempt++ {
		srv, err := store.NewServer(store.ServerConfig{Addr: addr})
		if err == nil {
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				srv.Shutdown(ctx)
			})
			return
		}
		if attempt > 100 {
			t.Fatalf("restart %s empty: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRepairCLI is `make repair-demo` as a test, for the key-less file
// on the whole fleet and for a keyed object on its ring shard: put,
// wipe one owner, one `prlcd repair` round, take an *original* owner
// away, and the file decodes bit-exactly from the repaired owner plus
// the last survivor.
func TestRepairCLI(t *testing.T) {
	for _, tc := range []struct {
		name    string
		daemons int
		keyed   []string // the -object/-replicas flags put, repair and get share
	}{
		{name: "keyless", daemons: 3},
		{name: "keyed", daemons: 4, keyed: []string{"-object", "repair-me", "-replicas", "3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs := startDaemons(t, tc.daemons)
			addrList := strings.Join(addrs, ",")
			in, data := writeRandomFile(t, t.TempDir(), "in.bin", 8192, 51)

			var out bytes.Buffer
			put := append([]string{
				"store", "put", "-addrs", addrList, "-in", in, "-blocks", "50", "-coded", "80",
				"-levels", "0.1,0.9", "-dist", "0.2,0.8", "-scheme", "plc",
			}, tc.keyed...)
			if err := run(put, &out); err != nil {
				t.Fatal(err)
			}

			// The owners: the whole fleet for the key-less file, the ring
			// shard `prlcd ring` resolves for the keyed object.
			owners := addrs
			if tc.keyed != nil {
				out.Reset()
				if err := run(append([]string{"ring", "-addrs", addrList}, tc.keyed...), &out); err != nil {
					t.Fatal(err)
				}
				_, list, ok := strings.Cut(strings.TrimSpace(out.String()), "replicas ")
				if owners = strings.Split(list, ", "); !ok || len(owners) != 3 {
					t.Fatalf("ring did not resolve three owners: %q", out.String())
				}
			}
			wipeDaemon(t, owners[1])

			out.Reset()
			repair := append([]string{
				"repair", "-addrs", addrList, "-scheme", "plc", "-sizes", "5,45",
				"-dist", "0.2,0.8", "-total", "80", "-budget", "128",
			}, tc.keyed...)
			if err := run(repair, &out); err != nil {
				t.Fatalf("repair: %v\n%s", err, out.String())
			}
			if s := out.String(); !strings.Contains(s, "3/3 replicas reachable") || strings.Contains(s, "regenerated 0 blocks") {
				t.Fatalf("repair report: %q", s)
			}

			// An original owner goes away; the repaired one carries its share.
			if err := run([]string{"store", "shutdown", "-addr", owners[0]}, &out); err != nil {
				t.Fatal(err)
			}
			rec := filepath.Join(t.TempDir(), "rec.bin")
			out.Reset()
			get := append([]string{
				"store", "get", "-addrs", addrList, "-out", rec,
				"-scheme", "plc", "-sizes", "5,45", "-size", "8192",
			}, tc.keyed...)
			if err := run(get, &out); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("recovered %d bytes differ from input after repair (output: %q)", len(got), out.String())
			}
		})
	}
}
