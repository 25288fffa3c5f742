"""Random partitions and preorders: test data for the property suites."""

from agenda_algebra.partitions import Partition, Preorder


def random_partition(rng, n):
    """Uniform-ish random partition: random merges over a random count."""
    parts = [[x] for x in range(n)]
    merges = rng.randrange(n)
    for _ in range(merges):
        if len(parts) == 1:
            break
        i, j = rng.sample(range(len(parts)), 2)
        parts[i] = parts[i] + parts[j]
        del parts[j]
    return Partition(n, parts)


def random_preorder(rng, n, density=0.3):
    """Random preorder: RT closure of a random pair set."""
    pairs = [
        (x, y)
        for x in range(n)
        for y in range(n)
        if x != y and rng.random() < density
    ]
    return Preorder.from_pairs(n, pairs, close=True)
