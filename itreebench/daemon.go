package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"incentivetree/internal/core"
	"incentivetree/internal/experiments"
	"incentivetree/internal/journal"
	"incentivetree/internal/obs"
	"incentivetree/internal/server"
	"incentivetree/internal/store"
	"incentivetree/internal/treegen"
)

// checkpointBytes is the size trigger of every measured store: small
// enough that write-small completes several checkpoints per run, large
// enough that a prepared suffix of maxSuffix events stays under it.
const checkpointBytes = 128 << 10

// daemon is one in-process itreed, composed the way cmd/itreed's setup
// composes it: a store recovered from its data directory with the Run
// loop going, every mechanism wrapped by experiments.Instrumented, and
// the store's handler (plus /metrics) behind a loopback listener.
type daemon struct {
	st        *store.Store
	reg       *obs.Registry
	http      *http.Server
	base      string // campaign URL prefix
	cancel    context.CancelFunc
	runDone   chan struct{}
	serveDone chan struct{}
}

// daemonOptions carries the benchmark's hooks into the composition;
// both are nil in untraced runs.
type daemonOptions struct {
	wrapMechanism func(core.Mechanism) core.Mechanism
	wrapHandler   func(http.Handler, *obs.Registry) http.Handler
}

// startDaemon opens the store on dir and starts serving it.
func startDaemon(dir string, w workload, o daemonOptions) (*daemon, error) {
	reg := obs.NewRegistry()
	newMechanism := func(name string, p core.Params) (core.Mechanism, error) {
		m, err := experiments.ByName(p, name)
		if err != nil {
			return nil, err
		}
		m = experiments.Instrumented(m, reg)
		if o.wrapMechanism != nil {
			m = o.wrapMechanism(m)
		}
		return m, nil
	}
	st, err := store.Open(store.Config{
		DataDir:            dir,
		CheckpointInterval: -1,
		CheckpointBytes:    checkpointBytes,
		Sync:               journal.SyncAlways,
		Metrics:            reg,
		NewMechanism:       newMechanism,
		DefaultMechanism:   w.mechanism,
		DefaultParams:      core.DefaultParams(),
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{st: st, reg: reg, cancel: cancel, runDone: make(chan struct{}), serveDone: make(chan struct{})}
	go func() {
		defer close(d.runDone)
		st.Run(ctx)
	}()
	root := http.NewServeMux()
	root.Handle("/", st.Handler())
	root.Handle("GET /metrics", reg.Handler())
	var h http.Handler = root
	if o.wrapHandler != nil {
		h = o.wrapHandler(root, reg)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		<-d.runDone
		st.Close()
		return nil, err
	}
	d.http = &http.Server{Handler: h}
	d.base = "http://" + ln.Addr().String() + "/v1/campaigns/" + store.DefaultID
	go func() {
		defer close(d.serveDone)
		d.http.Serve(ln)
	}()
	return d, nil
}

// stop drains the HTTP server, stops the Run loop and closes the store,
// which checkpoints the campaign: a clean shutdown.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	<-d.serveDone
	d.cancel()
	<-d.runDone
	if cerr := d.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// prepareImage builds the workload's restart state in dir, untimed: the
// population applied to a store, a checkpoint, then the suffix ops
// journaled after it. The files are copied while that store is still
// open, so the image is what a crash at that moment leaves on disk.
func prepareImage(dir string, w workload, s *stream) error {
	live := dir + ".live"
	st, err := store.Open(store.Config{
		DataDir:            live,
		CheckpointInterval: -1,
		CheckpointBytes:    -1,
		BatchMax:           -1,
		NewMechanism: func(name string, p core.Params) (core.Mechanism, error) {
			return experiments.ByName(p, name)
		},
		DefaultMechanism: w.mechanism,
		DefaultParams:    core.DefaultParams(),
	})
	if err != nil {
		return err
	}
	c, _ := st.Get(store.DefaultID)
	bulk := len(s.population) - s.suffix
	err = applyOps(c.Server(), s.population[:bulk])
	if err == nil {
		_, err = st.Checkpoint(c)
	}
	if err == nil {
		err = applyOps(c.Server(), s.population[bulk:])
	}
	if err == nil {
		err = copyDir(live, dir)
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(live); err == nil {
		err = rerr
	}
	return err
}

func applyOps(srv *server.Server, ops []treegen.Op) error {
	for _, o := range ops {
		var err error
		if o.Kind == treegen.OpJoin {
			err = srv.Join(o.Name, o.Sponsor)
		} else {
			err = srv.Contribute(o.Name, o.Amount)
		}
		if err != nil {
			return fmt.Errorf("prepare %s: %w", o.Name, err)
		}
	}
	return nil
}

// copyDir copies the regular files under src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return fmt.Errorf("copy %s: not a regular file", path)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
