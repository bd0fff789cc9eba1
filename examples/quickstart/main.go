// Quickstart: the Fig 1 flow end to end, driven the way sfs-run drives it
// — through the Session facade and its sharded, cache-backed checking
// pipeline. A small script suite is executed against a file system under
// test and checked by the oracle twice: the cold run executes everything,
// the warm run is pure cache hits, and both produce byte-identical
// records. Every call takes the context, so Ctrl-C (or a deadline) would
// stop the pipeline between jobs and leave the journal resumable. The
// Fig 4 deviation replay at the end shows what a rejection looks like.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"

	sibylfs "repro"
)

const script = `@type script
# Test rename___rename_emptydir___nonemptydir
mkdir "emptydir" 0o777
mkdir "nonemptydir" 0o777
open "nonemptydir/f" [O_CREAT;O_WRONLY] 0o666
rename "emptydir" "nonemptydir"
`

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	s, err := sibylfs.ParseScript(script)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== test script (Fig 2) ===")
	fmt.Print(s.Render())

	// Drive the script through the checking pipeline (as `sfs-run` does),
	// against a conforming in-memory Linux file system, with a result
	// cache and a JSONL journal. The session carries the whole
	// configuration; each run only names its work.
	dir, err := os.MkdirTemp("", "sfs-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	run := func(label string) sibylfs.PipelineRecord {
		session := sibylfs.New(
			sibylfs.WithSpec(sibylfs.DefaultSpec()),
			sibylfs.WithCacheDir(filepath.Join(dir, "cache")),
			sibylfs.WithJournal(filepath.Join(dir, label+".jsonl")),
		)
		defer session.Close() // seals the cache's index for the next session
		records, stats, err := session.Run(ctx, sibylfs.RunJob{
			Name:    "quickstart vs linux",
			Scripts: []*sibylfs.Script{s},
			Factory: sibylfs.MemFS(sibylfs.LinuxProfile("ext4")),
			FSName:  "ext4",
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s run] %s\n", label, stats)
		return records[0]
	}

	fmt.Println("\n=== checked trace, via the pipeline ===")
	rec := run("cold") // executes and checks, fills the cache
	fmt.Print(rec.Checked)

	warm := run("warm") // pure cache hit: same record, no execution
	if warm.Checked != rec.Checked || !warm.Cached {
		log.Fatal("warm run should reproduce the cold record from cache")
	}

	// Now replay the paper's Fig 4: SSHFS/tmpfs returned EPERM for the
	// rename; the oracle rejects it and names the allowed returns.
	bad := `@type trace
# Test rename___rename_emptydir___nonemptydir (SSHFS/tmpfs 2.5, Linux 3.19.1)
1: mkdir "emptydir" 0o777
1: RV_none
1: mkdir "nonemptydir" 0o777
1: RV_none
1: open "nonemptydir/f" [O_CREAT;O_WRONLY] 0o666
1: RV_file_descriptor(FD 3)
1: rename "emptydir" "nonemptydir"
1: EPERM
`
	bt, err := sibylfs.ParseTrace(bad)
	if err != nil {
		log.Fatal(err)
	}
	session := sibylfs.New(sibylfs.WithSpec(sibylfs.DefaultSpec()))
	br, err := session.CheckOne(ctx, bt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== checked trace of the SSHFS deviation (Fig 4) ===")
	fmt.Print(sibylfs.RenderChecked(bt, br))
}
