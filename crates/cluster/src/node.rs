//! Node identities in the simulated cluster.

/// Identity of a node in the cluster.
///
/// ColumnSGD uses one [`NodeId::Master`] and K [`NodeId::Worker`]s
/// (Figure 1b). The parameter-server baselines additionally use
/// [`NodeId::Server`]s — the paper configures "the number of servers same
/// as that of workers" (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// The coordinating master (Spark driver).
    Master,
    /// Worker `k` (0-based).
    Worker(usize),
    /// Parameter server `p` (0-based); only used by RowSGD baselines.
    Server(usize),
}

impl NodeId {
    /// Whether this node is a worker.
    pub fn is_worker(&self) -> bool {
        matches!(self, NodeId::Worker(_))
    }

    /// Whether this node is a parameter server.
    pub fn is_server(&self) -> bool {
        matches!(self, NodeId::Server(_))
    }

    /// The worker index, if this is a worker.
    pub fn worker_index(&self) -> Option<usize> {
        match self {
            NodeId::Worker(k) => Some(*k),
            _ => None,
        }
    }
}

impl From<NodeId> for columnsgd_telemetry::NodeRef {
    fn from(id: NodeId) -> Self {
        match id {
            NodeId::Master => columnsgd_telemetry::NodeRef::Master,
            NodeId::Worker(k) => columnsgd_telemetry::NodeRef::Worker(k as u32),
            NodeId::Server(p) => columnsgd_telemetry::NodeRef::Server(p as u32),
        }
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeId::Master => write!(f, "master"),
            NodeId::Worker(k) => write!(f, "worker{k}"),
            NodeId::Server(p) => write!(f, "server{p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(NodeId::Master.to_string(), "master");
        assert_eq!(NodeId::Worker(3).to_string(), "worker3");
        assert_eq!(NodeId::Server(0).to_string(), "server0");
    }

    #[test]
    fn classification() {
        assert!(NodeId::Worker(0).is_worker());
        assert!(!NodeId::Master.is_worker());
        assert!(NodeId::Server(1).is_server());
        assert_eq!(NodeId::Worker(5).worker_index(), Some(5));
        assert_eq!(NodeId::Master.worker_index(), None);
    }

    #[test]
    fn ordering_is_stable() {
        let mut v = vec![
            NodeId::Server(0),
            NodeId::Worker(1),
            NodeId::Master,
            NodeId::Worker(0),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                NodeId::Master,
                NodeId::Worker(0),
                NodeId::Worker(1),
                NodeId::Server(0)
            ]
        );
    }
}
