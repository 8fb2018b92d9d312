//! Self-hosting: an `hpm-server` over a store on loopback inside this
//! process, and the scratch directories durable stores live in.

use hpm_objectstore::{DurabilityConfig, FsyncPolicy, MovingObjectStore};
use hpm_server::{Client, Server, ServerConfig, ServerHandle};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Shards every benchmarked store is split across.
pub const SHARDS: usize = 4;
/// WAL records per physical write in every durable store.
pub const GROUP_COMMIT: usize = 256;

/// Worker threads every benchmarked store's pool gets: the machine's
/// parallelism, pinned so `HPM_THREADS` in the environment cannot
/// change what is measured.
pub fn store_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where build products, scratch data and traces go: the directory
/// Cargo was told to build into, else `target/sysbench` under the
/// current directory. Always inside the checkout the command runs in.
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target/sysbench"), Into::into)
}

/// A scratch directory removed when dropped.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates a fresh, empty directory unique to this process and call.
    pub fn new(label: &str) -> io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = out_dir().join("sysbench-data").join(format!(
            "{}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed),
            label
        ));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total size of the regular files directly inside, in bytes.
    pub fn bytes(&self) -> io::Result<u64> {
        let mut total = 0;
        for entry in std::fs::read_dir(&self.path)? {
            let meta = entry?.metadata()?;
            if meta.is_file() {
                total += meta.len();
            }
        }
        Ok(total)
    }

    /// Copies every file into a new scratch directory (data dirs are
    /// flat: WAL segments and snapshots only).
    pub fn duplicate(&self, label: &str) -> io::Result<ScratchDir> {
        let copy = ScratchDir::new(label)?;
        for entry in std::fs::read_dir(&self.path)? {
            let entry = entry?;
            if entry.metadata()?.is_file() {
                std::fs::copy(entry.path(), copy.path.join(entry.file_name()))?;
            }
        }
        Ok(copy)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The durability settings every durable benchmarked store uses:
/// group commit of [`GROUP_COMMIT`], no fsync (latencies are the
/// sandbox's page cache, not a device), snapshots only when asked.
pub fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        dir: dir.to_path_buf(),
        group_commit: GROUP_COMMIT,
        fsync: FsyncPolicy::Never,
        snapshot_every: 0,
    }
}

/// A server running on a loopback port in a background thread.
pub struct Hosted {
    store: Arc<MovingObjectStore>,
    addr: SocketAddr,
    handle: ServerHandle,
    thread: JoinHandle<io::Result<()>>,
}

impl Hosted {
    /// Binds `127.0.0.1:0` over `store` and starts serving.
    pub fn start(store: Arc<MovingObjectStore>) -> io::Result<Self> {
        let config = ServerConfig {
            // Every client has drained its replies before `stop`, so
            // the shutdown watchdog never has stragglers to wait for.
            drain_grace: Duration::from_millis(200),
            ..ServerConfig::default()
        };
        let server = Server::bind(Arc::clone(&store), "127.0.0.1:0", config)?;
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::Builder::new()
            .name("sysbench-serve".into())
            .spawn(move || server.serve())?;
        Ok(Hosted {
            store,
            addr,
            handle,
            thread,
        })
    }

    /// The store being served (for in-process oracle calls).
    pub fn store(&self) -> &Arc<MovingObjectStore> {
        &self.store
    }

    /// Opens one more client connection.
    pub fn connect(&self) -> io::Result<Client> {
        Client::connect(self.addr)
    }

    /// Stops the server, joins it, and hands the store back.
    pub fn stop(self) -> io::Result<Arc<MovingObjectStore>> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))??;
        Ok(self.store)
    }
}
