"""Hot numeric kernels of the maskers, one numpy function each.

``cluster_masker`` and ``similarity`` import these names, so a faster
kernel keeps its name and signature and replaces the body here. Results
are deterministic run to run.
"""

import numpy as np

COSINE_EPS = 1e-8  # denominator guard; zero vectors get similarity 0


def pairwise_cosine(vectors):
    """All-pairs epsilon-guarded cosine similarity of the rows of (L, d)."""
    norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors))
    return (vectors @ vectors.T) / (np.outer(norms, norms) + COSINE_EPS)


def masked_by_anchors(sim, anchors, threshold):
    """Boolean mask: anchors plus every index j with sim[a, j] >= threshold."""
    masked = np.zeros(sim.shape[0], dtype=np.bool_)
    if anchors.size:
        masked = (sim[anchors] >= threshold).any(axis=0)
        masked[anchors] = True
    return masked


def nearest_centroids(points, centroids):
    """Nearest centroid per point by squared Euclidean distance.

    Returns (labels, distances) where distances[i] is the squared
    distance of point i to its assigned centroid. Ties go to the lowest
    centroid index.
    """
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(points.shape[0]), labels]


def centroid_sums(points, labels, k):
    """Per-cluster coordinate sums and member counts."""
    sums = np.zeros((k, points.shape[1]), dtype=np.float64)
    np.add.at(sums, labels, points)
    counts = np.bincount(labels, minlength=k).astype(np.int64)
    return sums, counts
