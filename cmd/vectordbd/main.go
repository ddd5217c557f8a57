// Command vectordbd runs the engine as a network daemon: it listens for
// framed-protocol connections (package wire), serves SQL — including MODEL
// JOIN inference queries — with admission control and per-query deadlines,
// and drains gracefully on SIGINT/SIGTERM.
//
// Connect with the interactive shell:
//
//	vectordbd -addr 127.0.0.1:5433 -demo &
//	vectordb -connect 127.0.0.1:5433
package main

import (
	"context"
	"flag"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"indbml/internal/device"
	"indbml/internal/dist"
	"indbml/internal/engine/db"
	"indbml/internal/server"
	"indbml/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:5433", "listen address (host:port)")
	slots := flag.Int("slots", 0, "max concurrently executing queries (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 16, "admitted-statement queue depth (0 = reject when all slots busy)")
	queueWait := flag.Duration("queue-wait", 2*time.Second, "max time a statement queues for a slot (0 = wait until its deadline)")
	idle := flag.Duration("idle", 5*time.Minute, "close sessions idle this long (0 = never)")
	maxQuery := flag.Duration("max-query", 0, "cap every query's run time (0 = uncapped)")
	partitions := flag.Int("partitions", 4, "default table partition count")
	parallelism := flag.Int("parallelism", 0, "query parallelism (0 = GOMAXPROCS)")
	modelCache := flag.Int("model-cache", 0, "model artifact cache entries (0 = default 32)")
	flightSize := flag.Int("flight-recorder-size", 0, "query flight-recorder ring capacity (0 = default 1024)")
	demo := flag.Bool("demo", false, "load the iris/sinus demo workload at startup")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown budget before in-flight queries are canceled")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics on this address (empty = disabled)")
	withPprof := flag.Bool("pprof", false, "also serve /debug/pprof/ on -metrics-addr")
	slowLogPath := flag.String("slow-query-log", "", "append slow-query JSON lines to this file ('-' = stderr, empty = disabled)")
	slowThreshold := flag.Duration("slow-query-threshold", 500*time.Millisecond, "log statements slower than this (errors and cancellations are always logged)")
	shards := flag.String("shards", "", "comma-separated shard daemon addresses; when set, this daemon runs as the fleet coordinator")
	alertLogPath := flag.String("alert-log", "", "append alert-transition JSON lines to this file ('-' = stderr, empty = disabled)")
	var alertRules multiFlag
	flag.Var(&alertRules, "alert", "declare an alert rule at startup, e.g. 'hot_p99 ON p99(vectordb_statement_seconds) > 0.5 FOR 30s' (repeatable)")
	gpuPace := flag.Bool("gpu-pace", false, "pace the simulated GPU: operations occupy their modeled time (for honest multi-process scaling experiments)")
	gpuGemm := flag.Float64("gpu-gemm-throughput", 0, "override the simulated GPU matrix-multiply rate in FLOP/s (0 = default)")
	flag.Parse()

	gpuCfg := device.DefaultGPUConfig()
	gpuCfg.Pace = *gpuPace
	if *gpuGemm > 0 {
		gpuCfg.GemmThroughput = *gpuGemm
	}

	d := db.Open(db.Options{
		GPU:                gpuCfg,
		DefaultPartitions:  *partitions,
		Parallelism:        *parallelism,
		ModelCacheEntries:  *modelCache,
		FlightRecorderSize: *flightSize,
	})
	if *demo {
		if err := workload.LoadDemo(d); err != nil {
			log.Fatalf("vectordbd: loading demo workload: %v", err)
		}
		log.Printf("demo workload loaded: %v", workload.DemoTables)
	}

	if *shards != "" {
		addrs := strings.Split(*shards, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		co := dist.New(d, addrs)
		defer co.Close()
		log.Printf("coordinator mode: %d shards %v", co.NumShards(), addrs)
		if *demo {
			// Sharded MODEL JOIN runs inference shard-side, so the demo
			// model must exist on every shard.
			if err := co.ReplicateModel(context.Background(), "iris_model"); err != nil {
				log.Fatalf("vectordbd: replicating demo model to shards: %v", err)
			}
			log.Printf("demo model iris_model replicated to %d shards", co.NumShards())
		}
	}

	slowLog := openLogSink(*slowLogPath, "slow-query log")
	alertLog := openLogSink(*alertLogPath, "alert log")

	s := server.New(d, server.Config{
		QuerySlots:         *slots,
		QueueDepth:         *queue,
		QueueWait:          *queueWait,
		IdleTimeout:        *idle,
		MaxQueryDuration:   *maxQuery,
		SlowQueryLog:       slowLog,
		SlowQueryThreshold: *slowThreshold,
		AlertLog:           alertLog,
	})

	// -alert rules run through the full CREATE ALERT path, so a coordinator
	// broadcasts them to its shards exactly like SQL-declared ones.
	for _, rule := range alertRules {
		if err := d.Exec("CREATE ALERT " + rule); err != nil {
			log.Fatalf("vectordbd: -alert %q: %v", rule, err)
		}
		log.Printf("alert rule installed: %s", rule)
	}

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", d.Metrics().Handler())
		if *withPprof {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		metricsSrv = &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			if err := metricsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("vectordbd: metrics listener: %v", err)
			}
		}()
		log.Printf("metrics on http://%s/metrics (pprof: %v)", *metricsAddr, *withPprof)
	}

	errc := make(chan error, 1)
	go func() { errc <- s.ListenAndServe(*addr) }()
	log.Printf("vectordbd listening on %s", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errc:
		if err != nil {
			log.Fatalf("vectordbd: serve: %v", err)
		}
	case sig := <-sigc:
		log.Printf("received %s; draining (budget %s)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		err := s.Shutdown(ctx)
		// The wire listener is down; close the metrics port too so drain
		// leaves nothing serving (it previously leaked past shutdown).
		shutdownMetrics(ctx, metricsSrv)
		if err != nil {
			log.Printf("drain budget exceeded; in-flight queries canceled: %v", err)
			os.Exit(1)
		}
		log.Printf("drained cleanly")
	}
}

// multiFlag collects a repeatable string flag (-alert can be given once per
// rule).
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// openLogSink resolves a log-path flag: "" = disabled, "-" = stderr,
// anything else = append to that file.
func openLogSink(path, what string) io.Writer {
	switch path {
	case "":
		return nil
	case "-":
		return os.Stderr
	default:
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("vectordbd: opening %s: %v", what, err)
		}
		return f
	}
}

// shutdownMetrics gracefully stops the -metrics-addr HTTP server within
// the remaining drain budget, force-closing if that expires.
func shutdownMetrics(ctx context.Context, srv *http.Server) {
	if srv == nil {
		return
	}
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
}
