"""The similitude psi^-1 and the rectangle step of the map on plain numbers:
exact numbers, floats or numpy float arrays alike. The oracles of the pair
forms `pet.psi_inverse_ints` and `renorm.rect_branch_ints`, which the
library runs on every frame; and a seed row of lattice pairs as numbers."""


def seed_values(theta, row):
    """A row (xi, xj, yi, yj, ...) of lattice pairs as the numbers i + j*theta."""
    return tuple(i + j * theta for i, j in zip(row[::2], row[1::2]))


def psi_inverse(theta, eps: int, x, y, w=0, h=0):
    """psi^-1 pulls the rectangle (x, y, w, h) of the renormalized domain
    back into this one; a point when w = h = 0."""
    if eps == -1:
        # psi(x, y) = (y, x)/theta; inverse (x, y) -> (theta*y, theta*x)
        return theta * y, theta * x, theta * h, theta * w
    # psi(x, y) = (x, y - theta)/(1 - theta)
    s = 1 - theta
    return s * x, theta + s * y, s * w, s * h


def rect_branch(theta, eps: int, letter: str, x, y, w, h):
    """Image (x, y, w, h) of a rectangle under one step of the map, for a
    rectangle inside the square (letter 'a') or the rectangle ('b')."""
    if letter == "b":
        return x - 1, 1 - (y + h), w, h
    return 1 + theta - (y + h), x if eps == -1 else 1 - (x + w), h, w
