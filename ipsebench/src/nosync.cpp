//===- ipsebench/src/nosync.cpp - fsync as on tmpfs -----------------------===//
//
// Preloaded (LD_PRELOAD) into the `fleet` server only.  The server's data
// directory has to live inside the checkout, on whatever disk holds it; on
// a shared virtual disk one fsync takes from 0.1 ms to several ms depending
// on other machines' I/O, which would make the edit latencies measure the
// disk, not the program.  With the shim every fsync and fdatasync returns
// at once, as on the tmpfs data directory the workload is designed for;
// writes still go through the page cache as before.
//
//===----------------------------------------------------------------------===//

extern "C" {
int fsync(int) { return 0; }
int fdatasync(int) { return 0; }
}
