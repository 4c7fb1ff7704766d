// Command fakes3 runs the in-process fake S3 server as a standalone
// process: a minimal S3-compatible object store (SigV4-verified PUT,
// GET, HEAD, DELETE, and paginated ListObjectsV2) holding everything in
// memory. It exists for integration tests and CI smoke jobs that need a
// real network endpoint for the s3 and tiered artifact backends without
// any external service; it is not a durable store and never will be.
//
// Usage:
//
//	fakes3 -addr 127.0.0.1:9444 -bucket traces -access-key AKTEST -secret-key sekrit
//	mlcastore -s3-endpoint http://127.0.0.1:9444 -s3-bucket traces \
//	    -s3-access-key AKTEST -s3-secret-key sekrit -insecure list
//
// GET /fakes3/stats returns request and fault counters as JSON, which
// CI jobs use to assert remote quietness (e.g. a warm tiered cache
// issuing zero GETs).
package main

import (
	"flag"
	"log"
	"net"
	"net/http"

	"mlcache/internal/store/backend/fakes3"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fakes3: ")
	var (
		addr      = flag.String("addr", "127.0.0.1:9444", "listen address (host:port)")
		bucket    = flag.String("bucket", "traces", "bucket name to serve")
		accessKey = flag.String("access-key", "", "require SigV4 auth with this access key ID (empty = unsigned)")
		secretKey = flag.String("secret-key", "", "secret key for -access-key")
		region    = flag.String("region", "", "SigV4 region (default us-east-1)")
	)
	flag.Parse()
	if (*accessKey == "") != (*secretKey == "") {
		log.Fatal("-access-key and -secret-key must be set together")
	}

	srv := fakes3.New(fakes3.Config{
		Bucket:    *bucket,
		AccessKey: *accessKey,
		SecretKey: *secretKey,
		Region:    *region,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	auth := "unsigned"
	if *accessKey != "" {
		auth = "SigV4 key " + *accessKey
	}
	log.Printf("serving bucket %q on http://%s (%s; stats at /fakes3/stats)", *bucket, ln.Addr(), auth)
	log.Fatal(http.Serve(ln, srv))
}
