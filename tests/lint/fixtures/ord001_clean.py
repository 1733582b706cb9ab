"""Fixture: sanctioned set consumption — ORD001 must stay quiet."""

import os


def sorted_iteration(vertices: set[int]) -> list[int]:
    return [vertex for vertex in sorted(vertices)]


def order_free(vertices: set[int]) -> int:
    if all(vertex >= 0 for vertex in vertices):
        return len(vertices)
    return max(vertices)


def sorted_listing(path):
    return sorted(os.listdir(path))


def sorted_comprehension_listing(directory):
    names = sorted(entry.name for entry in directory.glob("*.json"))
    return names + sorted([os.path.join(directory, name) for name in os.listdir(directory)])


def rebound_name(vertices: set[int]) -> list[int]:
    vertices = sorted(vertices)
    return list(vertices)
